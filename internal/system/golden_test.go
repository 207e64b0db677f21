package system

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/core"
)

// resultDigest is a SHA-256 over every field of a Result: the summary,
// each pipeline statistic by name, and every named counter in sorted
// order.
func resultDigest(r Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%d|%d|%x|%+v\n", r.Machine, r.Workload, r.Cores,
		r.Cycles, math.Float64bits(r.IPC), r.Pipe)
	io.WriteString(h, r.Counters.String())
	return hex.EncodeToString(h.Sum(nil))
}

// goldenRun is one pinned run: the machine, the workload and core count,
// the per-core commit target, and the cycle count and Result digest the
// run must reproduce.
type goldenRun struct {
	machine string
	work    string
	cores   int
	insts   uint64
	cycles  int64
	digest  string
}

// goldenRuns pins every registry machine on a pointer-chasing
// uniprocessor run, a 4-way coherence run and the 16-way spin run, and
// replay-lq32 (replayLQ32) on the first two.
// reference_output.txt alone cannot prove a scheduler change exact: it
// did not notice a fix that moved the insulated load queue's cycle
// counts. A deliberate result change regenerates this table from the
// failure messages, which print each replacement line.
var goldenRuns = []goldenRun{
	{"baseline", "mcf", 1, 40000, 238948, "f86dff36ad6c094e1567310b7d44de58603bbc8f44684c17e5859d5d15022d80"},
	{"baseline", "ocean", 4, 10000, 26760, "056f98095a810805536fc590fda84c29ad95bb62f8e7dbb34414369669c6f68b"},
	{"baseline", "spin-mp", 16, 3000, 186872, "696997c058e9fad1e20edd9ab08993384893515bed8b65f1dc583354ca190524"},
	{"replay-all", "mcf", 1, 40000, 233956, "2354593ea4c812d1c66b71cb156b62a30733565253829e7c18cf45b558a3d1e7"},
	{"replay-all", "ocean", 4, 10000, 30322, "8d6dfcc265b37d6043c97a1f09129609f9e502f5e3d898eb1d45486497502d59"},
	{"replay-all", "spin-mp", 16, 3000, 187342, "9587b69637b4a10c133cf6dd889d757e8d4db5a27a1dd4717378e88f4176e52e"},
	{"no-reorder", "mcf", 1, 40000, 233951, "b79afe44a58ade0050198ca15526b5e7e90bd0f25b6a60e874e5dfbcca55f145"},
	{"no-reorder", "ocean", 4, 10000, 29983, "00f59753aee8905651106b947970341e9b18e98224d86e8fcbff8deb6773020e"},
	{"no-reorder", "spin-mp", 16, 3000, 187341, "c55135db2d8ffabdfc53035815c4562468d28e7e98bca58db6afb2769b63d900"},
	{"no-recent-miss", "mcf", 1, 40000, 233492, "54c5baac96bc5ab6fe868208a3b718f48576c72ea0546399eef2185c8cfcb4b9"},
	{"no-recent-miss", "ocean", 4, 10000, 28918, "d864311bd756d6a2f3fabf7088394e83d09bb14de1ef2684cef34aba3e8e9453"},
	{"no-recent-miss", "spin-mp", 16, 3000, 187342, "184af786c0035a061ddbb3a87204aa9a098f2273add8bad01ac319694d4ad36c"},
	{"no-recent-snoop", "mcf", 1, 40000, 232572, "334232976978260552b200f64f969008dd56c58eb9a2df7abd584edff53f04ca"},
	{"no-recent-snoop", "ocean", 4, 10000, 28635, "c405fdd7ebbf91ae4468b35a1335b76c3986b7678b234c22f3b65cb2513470d8"},
	{"no-recent-snoop", "spin-mp", 16, 3000, 187341, "f48ca5fd4299c7343a96e088d5b9f9c3325445be3920bfe9aa2802ecda8f8e54"},
	{"baseline-lq16", "mcf", 1, 40000, 293804, "a5818ffd2d6213644522a94116b8415ca333bda38835f0de9c2b5ad4285c650f"},
	{"baseline-lq16", "ocean", 4, 10000, 36054, "bd407faee110af69cc54192c2bbbd9e7ecd506371f4555de48819ff586a26cf1"},
	{"baseline-lq16", "spin-mp", 16, 3000, 186872, "d0e168e521044abb713ff0c0973507a7edd2cfd3862e42da6bc08d3b5bff3b06"},
	{"baseline-lq32", "mcf", 1, 40000, 256220, "7ed510ee21049c9f33c8946647a51a6e0be109b00c0dee2888f3408a4f8b5047"},
	{"baseline-lq32", "ocean", 4, 10000, 30153, "13cd02f38fdeec35c2102af7a0ae49e85e1fd5468ce35d21176503105348163c"},
	{"baseline-lq32", "spin-mp", 16, 3000, 186872, "7645e437282858368fd67764e574e4892c147fb821c4f95349999aa69899bca6"},
	{"baseline-insulated", "mcf", 1, 40000, 180062, "8661be352839280ed93860205bd4a41fd85e2471dfb24a42da9c66ce82e31c28"},
	{"baseline-insulated", "ocean", 4, 10000, 25781, "d2184f36e7f22237bb9e2185554c3c8f46c3b579829dd5af43791ae85a367542"},
	{"baseline-insulated", "spin-mp", 16, 3000, 187349, "20e2a79724fafe22653b0b6beaa99698e9fa24c8af87471d0f34d1e328d7850c"},
	{"baseline-hybrid", "mcf", 1, 40000, 238948, "94656cf4d38e44a5a3700dc433806156c0e418f803a4cc9f45ce4713d9bd37f3"},
	{"baseline-hybrid", "ocean", 4, 10000, 26139, "bdec76ac4287d9d758e5341e86cf632888407eb116cb4469c6d8bf13b2043826"},
	{"baseline-hybrid", "spin-mp", 16, 3000, 186872, "3c15ca5faa96aa3ed50c835edd9c59c96c65386505ca8e8cce4a17a2ef2fa5d1"},
	{"baseline-bloom", "mcf", 1, 40000, 238948, "17e59c520dbc2ea257b84cff0cfe3b2bf20d39c3ea8a80b99a6adf9a2af8261b"},
	{"baseline-bloom", "ocean", 4, 10000, 26760, "2e98949ce310de2bc0fe2825fd12a214452c4ad818b708a7c1e1cf6fc9171dff"},
	{"baseline-bloom", "spin-mp", 16, 3000, 186872, "f2112b7c90810473e301fd0eb9702d0e8d4011b4213115172ad5527aab3ef3c1"},
	{"baseline-hiersq", "mcf", 1, 40000, 238949, "cf9e9aaa5b32c4eb31d3a1b6324a28235a1e49b0212f783bc8f38fbb84987cd6"},
	{"baseline-hiersq", "ocean", 4, 10000, 26968, "8a674cddfbffcc8cde929ebe966783d74baf82f694b9505945e789a5aefc781c"},
	{"baseline-hiersq", "spin-mp", 16, 3000, 186872, "0487bc12a7dbad45e7ab66e92581402425a9e4cfe66b69d45fc2cf6247eeb8cd"},
	{"replay-vpred", "mcf", 1, 40000, 223327, "eca26ef7b5ca62992f5aaedcf11c257a1ec342688e386717348f7933de2a31ed"},
	{"replay-vpred", "ocean", 4, 10000, 28645, "1db9e4f044be2bab700c52187b46191ce3cd2b48baef7a1eac3242ed2d42cec4"},
	{"replay-vpred", "spin-mp", 16, 3000, 187341, "7ba7c138f574d1ddb6725ed9eac899f95ffa8f5a566facd456306350982a5be1"},
	{"nus-only", "mcf", 1, 40000, 232572, "7e07ee0329d6beec8763be808aee3ba10b4094e2103e100ee06083e796bf300d"},
	{"nus-only", "ocean", 4, 10000, 25812, "9431fb8f9f3caf475a46bb67ef2b7ed355d0ffeb1317823e8a0de59ce211bf11"},
	{"nus-only", "spin-mp", 16, 3000, 187341, "f52baf1ef0f255da0cb965937b7c915d73bdca1ebb865dd17c209b4b8f11b4c1"},
	{"replay-lq32", "mcf", 1, 40000, 249475, "6ec68b9d8255a93a46c5393a1076b22afae9af90fe2905e38b5e96a6676fee20"},
	{"replay-lq32", "ocean", 4, 10000, 31399, "f2f565b01d55ffc46ccebe0272bfd5bbaca292c65488aea208d02d4191e7f2e9"},
}

// goldenShapes are the workload shapes pinned for every machine.
var goldenShapes = []struct {
	work  string
	cores int
	insts uint64
}{
	{"mcf", 1, 40000},
	{"ocean", 4, 10000},
	{"spin-mp", 16, 3000},
}

// replayLQ32 is the no-recent-snoop replay machine with a 32-entry load
// queue. Every registry replay machine sizes its load queue to the ROB,
// which dispatch checks first, so only this machine stalls dispatch on
// a full load queue.
func replayLQ32() config.Machine {
	m := config.Replay(core.NoRecentSnoop)
	m.LQSize = 32
	return m
}

// goldenCell is one pinned run: a machine under its table name and one
// workload shape.
type goldenCell struct {
	name  string
	cfg   config.Machine
	work  string
	cores int
	insts uint64
}

// key names the cell in the golden tables and as a subtest.
func (g goldenCell) key() string { return fmt.Sprintf("%s/%s/%d", g.name, g.work, g.cores) }

// goldenCells lists the pinned runs: every registry machine on every
// golden shape, then replay-lq32 (replayLQ32) on mcf/1 and ocean/4.
func goldenCells() []goldenCell {
	var cells []goldenCell
	for _, name := range config.Names() {
		cfg, _ := config.ByName(name)
		for _, sh := range goldenShapes {
			cells = append(cells, goldenCell{name, cfg, sh.work, sh.cores, sh.insts})
		}
	}
	for _, sh := range goldenShapes[:2] {
		cells = append(cells, goldenCell{"replay-lq32", replayLQ32(), sh.work, sh.cores, sh.insts})
	}
	return cells
}

// TestGoldenResults reruns every pinned cell and compares its cycle
// count and Result digest with the table. replay-lq32 must also stall
// dispatch on its full load queue.
func TestGoldenResults(t *testing.T) {
	pinned := map[string]goldenRun{}
	for _, g := range goldenRuns {
		pinned[fmt.Sprintf("%s/%s/%d", g.machine, g.work, g.cores)] = g
	}
	for _, cell := range goldenCells() {
		t.Run(cell.key(), func(t *testing.T) {
			opt := Options{Cores: cell.cores, Seed: 3, DMAInterval: 4000, DMABurst: 2}
			s := New(cell.cfg, mustWork(t, cell.work), opt)
			res := s.Run(cell.insts, opt)
			got := goldenRun{cell.name, cell.work, cell.cores, cell.insts, s.CycleNum, resultDigest(res)}
			if want, ok := pinned[cell.key()]; !ok || want != got {
				t.Errorf("cycles %d, digest %s; pinned %+v\nreplacement line:\n\t{%q, %q, %d, %d, %d, %q},",
					got.cycles, got.digest, want, got.machine, got.work, got.cores,
					got.insts, got.cycles, got.digest)
			}
			if cell.name == "replay-lq32" && res.Pipe.StallLQ == 0 {
				t.Error("replay-lq32 never stalled dispatch on a full load queue")
			}
		})
	}
}
