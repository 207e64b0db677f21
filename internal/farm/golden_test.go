package farm

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"vbmo/internal/farm/cachekey"
)

// goldenVersion is the code-version fingerprint every binary built
// without VCS stamping reports, go test included. The pinned keys and
// job IDs below embed it.
const goldenVersion = "farm-v1|dev"

// farmSmokeSpec is the job CI's farm-smoke and worker-smoke submit
// (their job.json).
func farmSmokeSpec() JobSpec {
	return JobSpec{
		Litmus: &LitmusSpec{
			Tests: []string{"SB", "MP"}, Configs: []string{"baseline", "nus-only"},
			Runs: 100, Seed: 7,
		},
		Bench: &BenchSpec{
			Machines: []string{"baseline"}, Workloads: []string{"gzip"},
			Cores: 1, Warm: 5000, Window: 20000, Seed: 1,
		},
	}
}

// benchFarmSpec is vbrbench's farm job at seed 1 with the full-budget
// instruction counts: a §5.1 matrix slice and a litmus slice, 30 cells.
func benchFarmSpec() JobSpec {
	return JobSpec{
		Matrix: &MatrixSpec{
			Machines:  []string{"baseline", "no-recent-snoop"},
			Workloads: []string{"gzip", "vortex", "ocean"},
			UniInstr:  400_000, MPInstr: 20_000, MPCores: 16, Samples: 1, Seed: 1,
		},
		Litmus: &LitmusSpec{
			Tests: []string{"SB", "MP", "IRIW", "WRC"}, Runs: 100, Seed: 1,
		},
	}
}

// goldenIdentity pins one spec's expansion: its cell count, its job ID,
// and a SHA-256 over its ordered cell keys.
type goldenIdentity struct {
	name  string
	cells int
	id    string
	keys  string
}

var goldenSpecs = map[string]func() JobSpec{
	"testSpec":   testSpec,
	"farm-smoke": farmSmokeSpec,
	"vbrbench":   benchFarmSpec,
}

var goldenIdentities = []goldenIdentity{
	{"testSpec", 5, "9003a0fe7ff699f0", "a34895d9fe763a6d84d892b810dc5601a20673e697ecb221fda538de06bdf8e0"},
	{"farm-smoke", 5, "9e6ef30b7ba3e7aa", "e9ca19b0fdf345308f87a3f5d7c5a41bf827f0c5c757213ccf4697e84686e58f"},
	{"vbrbench", 30, "d877b268805cdd42", "5d77a9b977b14f1bcfc5f41fde7b6d5c07f77c9633799ad81717da2f2bd5126a"},
}

// goldenTestSpecDigest is the result digest of testSpec(), cold and
// warm.
const goldenTestSpecDigest = "7b0012afe5eaa71774acf87c42ecfe14c43a39146208fc878406939e33426ed0"

// goldenRawValues is one fixed result list, in canonical form (compact,
// HTML-escaped) and hand-indented with raw '<', '&' and U+2028.
// cachekey.Hash re-encodes every element, so both forms hash alike.
var goldenRawValues = []struct {
	form   string
	values []string
	digest string
}{
	{"canonical", []string{
		`{"s":"\u003ca\u003e \u0026 b \u2028 c","n":[1e+21,-2.5E-7,0.5],"deep":[[[]],[1,[2,[3]]]]}`,
		`[true,false,null,"x"]`,
		`-0.0e0`,
	}, "27d8e0c195511884022c9b3ce95df9846555a00381114dee6fa33b4702ac861d"},
	{"indented", []string{
		"{\n  \"s\": \"<a> & b \u2028 c\",\n  \"n\": [1e+21, -2.5E-7, 0.5],\n  \"deep\": [ [ [ ] ], [1, [2, [3]]] ]\n}",
		"[ true,\n\tfalse, null, \"x\" ]",
		" -0.0e0\n",
	}, "27d8e0c195511884022c9b3ce95df9846555a00381114dee6fa33b4702ac861d"},
}

// keysDigest returns the hex SHA-256 over the ordered keys, one per
// line.
func keysDigest(keys []string) string {
	sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
	return hex.EncodeToString(sum[:])
}

// TestGoldenJobIdentity pins what a farm job is known by: for three
// specs, the cell count, JobID and cell keys; the digest of a real run
// of testSpec(), cold and from a warm cache; and cachekey.Hash over a
// fixed result list whatever its formatting. A change meant to keep
// keys, IDs and digests must pass it unchanged. A failure prints the
// replacement line.
func TestGoldenJobIdentity(t *testing.T) {
	if v := cachekey.Version(); v != goldenVersion {
		t.Skipf("pinned values need Version() %q, have %q", goldenVersion, v)
	}
	for _, g := range goldenIdentities {
		spec := goldenSpecs[g.name]()
		cells, err := spec.Cells()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		keys := make([]string, len(cells))
		for i, c := range cells {
			if keys[i], err = c.Key(); err != nil {
				t.Fatalf("%s: cell %d: %v", g.name, i, err)
			}
		}
		got := goldenIdentity{g.name, len(cells), JobID(spec), keysDigest(keys)}
		if got != g {
			t.Errorf("%s: got %+v, pinned %+v\nreplacement line:\n\t{%q, %d, %q, %q},",
				g.name, got, g, got.name, got.cells, got.id, got.keys)
		}
	}

	for _, g := range goldenRawValues {
		values := make([]json.RawMessage, len(g.values))
		for i, v := range g.values {
			values[i] = json.RawMessage(v)
		}
		if got := cachekey.Hash(values); got != g.digest {
			t.Errorf("%s values: Hash %s, pinned %q\nreplacement digest:\n\t%q",
				g.form, got, g.digest, got)
		}
	}

	srv, c := startServer(t, t.TempDir(), 2)
	defer srv.Stop()
	for _, fresh := range []bool{false, true} {
		st, err := c.Submit(testSpec(), fresh)
		if err != nil {
			t.Fatal(err)
		}
		if st, err = c.Wait(st.ID, 2*time.Minute); err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone || st.Digest != goldenTestSpecDigest {
			t.Errorf("testSpec run (fresh=%t): state %s, digest %s, pinned %q\nreplacement line:\n\tconst goldenTestSpecDigest = %q",
				fresh, st.State, st.Digest, goldenTestSpecDigest, st.Digest)
		}
	}
}
