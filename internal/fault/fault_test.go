package fault

import (
	"strings"
	"testing"
)

func TestParseKinds(t *testing.T) {
	ks, err := ParseKinds("load-value,drop-snoop")
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 2 || ks[0] != LoadValue || ks[1] != DropSnoop {
		t.Fatalf("got %v", ks)
	}
	// "all" excludes suppress-rule3 (it livelocks by design).
	ks, err = ParseKinds("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		if k == SuppressRule3 {
			t.Fatal("\"all\" must not include suppress-rule3")
		}
	}
	if len(ks) != int(numKinds)-1 {
		t.Fatalf("all: got %d kinds, want %d", len(ks), int(numKinds)-1)
	}
	if _, err := ParseKinds("no-such-kind"); err == nil {
		t.Fatal("want error for unknown kind")
	}
	if _, err := ParseKinds(""); err == nil {
		t.Fatal("want error for empty string")
	}
	// Round trip every name.
	for _, name := range Kinds() {
		ks, err := ParseKinds(name)
		if err != nil || len(ks) != 1 || ks[0].String() != name {
			t.Fatalf("round trip %q: %v %v", name, ks, err)
		}
	}
}

func TestConfigEnabled(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Fatal("nil config must be disabled")
	}
	if (&Config{Kinds: []Kind{LoadValue}}).Enabled() {
		t.Fatal("zero rate must be disabled")
	}
	if (&Config{Rate: 1}).Enabled() {
		t.Fatal("no kinds must be disabled")
	}
	if !(&Config{Kinds: []Kind{LoadValue}, Rate: 0.5}).Enabled() {
		t.Fatal("kinds+rate must be enabled")
	}
}

// TestForRun pins the per-run derivation the litmus sweep has always
// used, so a plan with an explicit seed draws the same streams as
// before, and requires a disabled plan to stay nil.
func TestForRun(t *testing.T) {
	c := &Config{Kinds: []Kind{DropSnoop}, Rate: 1, Seed: 9, Delay: 5}
	seed := uint64(7)
	d := c.ForRun(seed)
	if d == c || d.Seed != 9^(seed*0x2545f4914f6cdd1d) || d.Rate != 1 || d.Delay != 5 || c.Seed != 9 {
		t.Fatalf("ForRun(7) = %+v from %+v", d, c)
	}
	if (*Config)(nil).ForRun(7) != nil || (&Config{Kinds: []Kind{LoadValue}}).ForRun(7) != nil {
		t.Fatal("a plan that injects nothing must derive no plan")
	}
	if d, err := FromFlags("", 1, 3, 0); d != nil || err != nil {
		t.Fatalf("empty -fault: %v, %v", d, err)
	}
	if d, err := FromFlags("drop-fill", 0.5, 3, 10); err != nil || d.Seed != 3 || d.Rate != 0.5 || d.Delay != 10 || d.Kinds[0] != DropFill {
		t.Fatalf("FromFlags: %+v, %v", d, err)
	}
}

// TestJudge covers every verdict a litmus battery can get under a fault
// plan: sabotage that took inputs away is caught or escapes by whether
// anything was flagged, sabotage that never took one leaves a plain
// battery, and corruption and delays are informational whatever the
// checker flagged.
func TestJudge(t *testing.T) {
	plan := func(ks ...Kind) *Config { return &Config{Kinds: ks, Rate: 1} }
	for _, c := range []struct {
		name    string
		plan    *Config
		st      Stats
		flagged int
		want    Verdict
	}{
		{"no plan", nil, Stats{}, 0, Unsabotaged},
		{"suppression caught", plan(SuppressWindow), Stats{Suppressed: 40}, 3, Caught},
		{"drop caught", plan(DropSnoop), Stats{Dropped: 40}, 1, Caught},
		{"suppression escaped", plan(SuppressWindow), Stats{Suppressed: 40}, 0, Escaped},
		{"drop escaped", plan(DropFill), Stats{Dropped: 1}, 0, Escaped},
		{"no interference", plan(SuppressNUS), Stats{}, 0, Unsabotaged},
		{"rule 3 never armed", plan(SuppressRule3), Stats{}, 0, Unsabotaged},
		{"delays only", plan(DelaySnoop), Stats{Delayed: 40}, 5, Delayed},
		{"drops never taken beside delays", plan(DropSnoop, DelaySnoop), Stats{Delayed: 40}, 0, Delayed},
		{"value corruption", plan(LoadValue, CacheData), Stats{Injected: 40, Missed: 3}, 2, Corrupted},
		{"disabled plan", &Config{Kinds: []Kind{DropSnoop}}, Stats{}, 0, Unsabotaged},
	} {
		if got := c.plan.Judge(c.st, c.flagged); got != c.want {
			t.Errorf("%s: Judge = %v, want %v", c.name, got, c.want)
		}
	}
	for k := Kind(0); k < numKinds; k++ {
		want := Sabotage
		switch {
		case strings.HasPrefix(k.String(), "delay-"):
			want = Delay
		case k == LoadValue || k == CacheData:
			want = Corruption
		}
		if k.Class() != want {
			t.Errorf("%v: class %d, want %d", k, k.Class(), want)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	run := func() []Injection {
		in := NewInjector(Config{Kinds: []Kind{LoadValue}, Rate: 0.5, Seed: 7}, nil)
		for i := 0; i < 200; i++ {
			v, ok := in.CorruptLoadValue(0, int64(i), 0x400, uint64(i)*8, uint64(i), false, int64(i))
			if ok && v == uint64(i) {
				t.Fatal("corruption must change the value")
			}
		}
		return append([]Injection(nil), in.Log...)
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("rate 0.5 over 200 draws injected nothing")
	}
	if len(a) != len(b) {
		t.Fatalf("nondeterministic: %d vs %d injections", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("injection %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRateOneAlwaysInjects(t *testing.T) {
	in := NewInjector(Config{Kinds: []Kind{LoadValue}, Rate: 1, Seed: 1}, nil)
	for i := 0; i < 50; i++ {
		if _, ok := in.CorruptLoadValue(0, int64(i), 0, 0, 0, false, 0); !ok {
			t.Fatalf("rate 1.0 skipped injection %d", i)
		}
	}
	if in.Stats.Injected != 50 {
		t.Fatalf("injected %d, want 50", in.Stats.Injected)
	}
}

func TestMaxBoundsInjections(t *testing.T) {
	in := NewInjector(Config{Kinds: []Kind{LoadValue}, Rate: 1, Seed: 1, Max: 3}, nil)
	n := 0
	for i := 0; i < 10; i++ {
		if _, ok := in.CorruptLoadValue(0, int64(i), 0, 0, 0, false, 0); ok {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("Max=3 allowed %d injections", n)
	}
}

func TestOutcomeAccounting(t *testing.T) {
	in := NewInjector(Config{Kinds: []Kind{LoadValue}, Rate: 1, Seed: 3}, nil)
	// tag 1: detected by replay mismatch.
	in.CorruptLoadValue(0, 1, 0, 0, 10, false, 5)
	in.OnReplayVerdict(0, 1, true, 9)
	// tag 2: replay compared equal — benign.
	in.CorruptLoadValue(0, 2, 0, 0, 20, false, 6)
	in.OnReplayVerdict(0, 2, false, 11)
	// tag 3: committed without verification — missed.
	in.CorruptLoadValue(0, 3, 0, 0, 30, false, 7)
	in.OnLoadCommit(0, 3, 12)
	// tag 4: squashed before verification — vacated.
	in.CorruptLoadValue(0, 4, 0, 0, 40, false, 8)
	in.OnSquash(0, 4, 13)
	s := in.Stats
	if s.Detected != 1 || s.Benign != 1 || s.Missed != 1 || s.Vacated != 1 {
		t.Fatalf("stats %+v", s)
	}
	if in.PendingInjections() != 0 {
		t.Fatalf("pending %d, want 0", in.PendingInjections())
	}
	if in.Lat.Mean() != 4 { // detection latency 9-5
		t.Fatalf("latency mean %v, want 4", in.Lat.Mean())
	}
	for _, rec := range in.Log {
		if rec.Fate == Pending {
			t.Fatalf("unresolved log record %+v", rec)
		}
	}
}

func TestSquashVacatesOnlyYoungerTags(t *testing.T) {
	in := NewInjector(Config{Kinds: []Kind{LoadValue}, Rate: 1, Seed: 3}, nil)
	in.CorruptLoadValue(0, 5, 0, 0, 1, false, 1)
	in.CorruptLoadValue(0, 9, 0, 0, 2, false, 2)
	in.OnSquash(0, 7, 3) // squash from tag 7: vacates 9, not 5
	if in.Stats.Vacated != 1 {
		t.Fatalf("vacated %d, want 1", in.Stats.Vacated)
	}
	in.OnReplayVerdict(0, 5, true, 4)
	if in.Stats.Detected != 1 {
		t.Fatalf("detected %d, want 1", in.Stats.Detected)
	}
}

func TestDeferredDeliveryOrder(t *testing.T) {
	in := NewInjector(Config{Kinds: []Kind{DelaySnoop}, Rate: 1, Seed: 1}, nil)
	var got []int
	in.Defer(20, func() { got = append(got, 2) })
	in.Defer(10, func() { got = append(got, 1) })
	in.Defer(20, func() { got = append(got, 3) }) // same due: insertion order
	in.DeliverDue(15)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("after cycle 15: %v", got)
	}
	in.DeliverDue(25)
	if len(got) != 3 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("after cycle 25: %v", got)
	}
	if in.PendingMessages() != 0 {
		t.Fatal("pending messages remain")
	}
}

func TestDropAndDelayFates(t *testing.T) {
	drop := NewInjector(Config{Kinds: []Kind{DropSnoop}, Rate: 1, Seed: 2}, nil)
	if dropped, _ := drop.SnoopFate(0, 1); !dropped {
		t.Fatal("DropSnoop at rate 1 must drop")
	}
	if dropped, extra := drop.FillFate(0, 1); dropped || extra != 0 {
		t.Fatal("DropSnoop must not affect fills")
	}
	delay := NewInjector(Config{Kinds: []Kind{DelayFill}, Rate: 1, Seed: 2, Delay: 16}, nil)
	dropped, extra := delay.FillFate(0, 1)
	if dropped {
		t.Fatal("DelayFill must not drop")
	}
	if extra < 16 || extra >= 32 {
		t.Fatalf("delay %d outside [16,32)", extra)
	}
}

func TestHist(t *testing.T) {
	var h Hist
	for _, v := range []int64{1, 2, 3, 100, 1000} {
		h.Add(v)
	}
	if h.Mean() != (1+2+3+100+1000)/5.0 {
		t.Fatalf("mean %v", h.Mean())
	}
	var h2 Hist
	h2.Add(7)
	h2.Merge(h)
	if h2.Mean() != (1+2+3+100+1000+7)/6.0 {
		t.Fatalf("merged mean %v", h2.Mean())
	}
	if !strings.Contains(h2.String(), "max=1000") {
		t.Fatalf("string %q", h2.String())
	}
}

func TestSummaryString(t *testing.T) {
	in := NewInjector(Config{Kinds: []Kind{LoadValue}, Rate: 1, Seed: 3}, nil)
	in.CorruptLoadValue(0, 1, 0, 0, 10, false, 5)
	in.OnReplayVerdict(0, 1, true, 9)
	s := in.Summary()
	if !strings.Contains(s, "injected=1") || !strings.Contains(s, "detected=1") {
		t.Fatalf("summary %q", s)
	}
}
