package litmus

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// goldenVerdicts pins a SHA-256 over the battery's verdicts per machine
// width (cores; 0 is each test's natural thread count): RunCell's
// verdict for every Battery() test on every Configs() column, in
// battery order, goldenRuns runs per cell from CellSeed(goldenSeed,
// test, config). A deliberate verdict change regenerates an entry from
// the failure message, which prints the replacement line.
var goldenVerdicts = map[int]string{
	0:  "9d30b2160fe1e5037916a3c42b47c6001a09c0eafbf5c0bd0cc5dba5735bef05",
	16: "9d30b2160fe1e5037916a3c42b47c6001a09c0eafbf5c0bd0cc5dba5735bef05",
}

const (
	goldenSeed = 1
	goldenRuns = 20
)

// verdictDigest runs the battery at the given width and hashes every
// cell's verdict: outcome histogram, forbidden, weak-hit, cyclic and
// incomplete counts.
func verdictDigest(t *testing.T, cores int) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for ti, test := range Battery() {
		as := Allowed(test)
		for ci, cfg := range Configs() {
			v := RunCell(test, cfg, as, goldenRuns, CellSeed(goldenSeed, ti, ci), nil, cores)
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenVerdicts holds the litmus verdicts of a change meant to be
// exact to the pinned digests, at natural width and inside a 16-way
// machine, where a scheduler change shows first.
func TestGoldenVerdicts(t *testing.T) {
	for _, cores := range []int{0, 16} {
		if got, want := verdictDigest(t, cores), goldenVerdicts[cores]; got != want {
			t.Errorf("cores %d: verdict digest %s, pinned %q\nreplacement line:\n\t%d: %q,",
				cores, got, want, cores, got)
		}
	}
}
