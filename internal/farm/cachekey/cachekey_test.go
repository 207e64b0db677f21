package cachekey

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"vbmo/internal/config"
	"vbmo/internal/fault"
	"vbmo/internal/workload"
)

// TestHashDeterministic: equal inputs hash equal, across repeated calls
// and regardless of construction order — no pointer identity or map
// iteration order may leak into the digest.
func TestHashDeterministic(t *testing.T) {
	a, _ := config.ByName("baseline")
	b, _ := config.ByName("baseline")
	if Hash(a) != Hash(b) {
		t.Fatal("two independently-built copies of the same machine hash differently")
	}
	if Hash(a) != Hash(a) {
		t.Fatal("hash of the same value is not stable across calls")
	}
	// Maps marshal with sorted keys, so insertion order is invisible.
	m1 := map[string]int{}
	m1["x"] = 1
	m1["a"] = 2
	m1["q"] = 3
	m2 := map[string]int{}
	m2["q"] = 3
	m2["a"] = 2
	m2["x"] = 1
	if Hash(m1) != Hash(m2) {
		t.Fatal("map insertion order changed the hash")
	}
}

// TestMachineFieldSensitivity: any semantically relevant field change
// must change the machine digest.
func TestMachineFieldSensitivity(t *testing.T) {
	base, ok := config.ByName("baseline")
	if !ok {
		t.Fatal("baseline machine missing")
	}
	ref := Machine(base)
	mod := base
	mod.ROBSize++
	if Machine(mod) == ref {
		t.Fatal("ROB size change did not change the digest")
	}
	mod = base
	mod.Name = "renamed"
	if Machine(mod) == ref {
		t.Fatal("rename did not change the digest")
	}
	other, ok := config.ByName("replay-all")
	if !ok {
		t.Fatal("replay-all machine missing")
	}
	if Machine(other) == ref {
		t.Fatal("distinct machines collide")
	}
}

// TestWorkloadAndFaultDigests: workloads differ pairwise; the nil fault
// plan has a digest distinct from every enabled plan; a rate change
// changes an enabled plan's digest.
func TestWorkloadAndFaultDigests(t *testing.T) {
	seen := map[string]string{}
	for _, w := range workload.Catalog() {
		d := Workload(w)
		if prev, dup := seen[d]; dup {
			t.Fatalf("workloads %s and %s collide", prev, w.Name)
		}
		seen[d] = w.Name
	}
	off := Fault(nil)
	on := Fault(&fault.Config{Kinds: []fault.Kind{fault.LoadValue}, Rate: 0.5, Seed: 1})
	if off == on {
		t.Fatal("nil and enabled fault plans collide")
	}
	on2 := Fault(&fault.Config{Kinds: []fault.Kind{fault.LoadValue}, Rate: 0.25, Seed: 1})
	if on == on2 {
		t.Fatal("fault rate change did not change the digest")
	}
}

// TestVersionShape: the fingerprint embeds the schema constant (so a
// schema bump invalidates every cache) and is memoized-stable.
func TestVersionShape(t *testing.T) {
	v := Version()
	if !strings.HasPrefix(v, Schema+"|") {
		t.Fatalf("version %q does not start with schema %q", v, Schema)
	}
	if v != Version() {
		t.Fatal("version is not stable within a process")
	}
}

// TestJoinInjective: joined parts cannot collide by concatenation
// (the separator never appears in hex digests or decimal numbers).
func TestJoinInjective(t *testing.T) {
	if Join("ab", "c") == Join("a", "bc") {
		t.Fatal("join is not injective over part boundaries")
	}
	if !strings.Contains(Join("a", "b"), "|") {
		t.Fatal("join separator missing")
	}
}

// jsonDoc is a random JSON document for testing/quick, rendered loosely:
// indented and with '<', '>', '&' left unescaped.
type jsonDoc []byte

// jsonRunes are the string characters a document draws from: the ones
// canonical form escapes, quotes, controls and non-ASCII.
var jsonRunes = []rune("ab<>&\"\\/\n\t\x01 \u2028\u2029\u00e9\U0001F600")

func randomString(r *rand.Rand) string {
	s := make([]rune, r.Intn(6))
	for i := range s {
		s[i] = jsonRunes[r.Intn(len(jsonRunes))]
	}
	return string(s)
}

func randomValue(r *rand.Rand, depth int) any {
	k := r.Intn(8)
	if depth <= 0 {
		k %= 5
	}
	switch k {
	case 0:
		return nil
	case 1:
		return r.Intn(2) == 0
	case 2:
		// Exponents both ways, negative zero and integers.
		return math.Copysign(r.Float64()*math.Pow(10, float64(r.Intn(60)-30)), float64(r.Intn(2)*2-1))
	case 3:
		return r.Int63n(1<<53) - 1<<52
	case 4:
		return randomString(r)
	case 5, 6:
		a := make([]any, r.Intn(4))
		for i := range a {
			a[i] = randomValue(r, depth-1)
		}
		return a
	default:
		m := map[string]any{}
		for i := r.Intn(4); i > 0; i-- {
			m[randomString(r)] = randomValue(r, depth-1)
		}
		return m
	}
}

// Generate implements quick.Generator.
func (jsonDoc) Generate(r *rand.Rand, size int) reflect.Value {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent(" ", "\t")
	if err := enc.Encode(randomValue(r, 1+size%4)); err != nil {
		panic(err)
	}
	return reflect.ValueOf(jsonDoc(buf.Bytes()))
}

// TestHashArrayMatchesHash: over canonicalized random JSON values, the
// streamed HashArray equals Hash of the []json.RawMessage, in either
// its canonical or its loose form (Hash re-encodes each element).
func TestHashArrayMatchesHash(t *testing.T) {
	prop := func(docs []jsonDoc) bool {
		loose := make([]json.RawMessage, len(docs))
		canon := make([]json.RawMessage, len(docs))
		for i, d := range docs {
			loose[i] = json.RawMessage(d)
			c, err := json.Marshal(loose[i])
			if err != nil {
				t.Fatalf("canonicalizing %s: %v", d, err)
			}
			canon[i] = c
		}
		streamed := HashArray(len(canon), func(i int) []byte { return canon[i] })
		return streamed == Hash(canon) && streamed == Hash(loose)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// A nil element streams as null, as json.Marshal writes it.
	holes := []json.RawMessage{nil, json.RawMessage(`1`), nil}
	if got, want := HashArray(len(holes), func(i int) []byte { return holes[i] }), Hash(holes); got != want {
		t.Fatalf("nil elements: HashArray %s, Hash %s", got, want)
	}
}
