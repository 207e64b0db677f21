// Tests that gate simulator speed on exact host work counts (DESIGN.md
// §22) instead of wall time: the counts are the same on every host, so
// a change that adds work fails here however noisy the machine is.

package system

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/pipeline"
)

// goldenWork pins one golden run's host work: the per-stage work counts,
// the fast-forward accounting and the stage-skip counts.
type goldenWork struct {
	machine string
	work    string
	cores   int
	w       pipeline.WorkStats
	ff      FFStats
	sk      pipeline.SkipStats
}

// goldenWorks pins the runs of goldenRuns. Each count has its own key,
// so the diff of a regenerated table shows which count moved.
var goldenWorks = []goldenWork{
	{"baseline", "mcf", 1,
		pipeline.WorkStats{Steps: 39054, Writeback: 113993, Capture: 62854, Commit: 58410, Replay: 0, Issue: 65236, SQCompares: 135635},
		FFStats{Windows: 1378, SkippedCycles: 199894, Probes: 26044},
		pipeline.SkipStats{Writeback: 19608, Capture: 23701, Commit: 17688, Replay: 0, Issue: 20875, ParkedProbes: 6652}},
	{"baseline", "ocean", 4,
		pipeline.WorkStats{Steps: 45134, Writeback: 92199, Capture: 42078, Commit: 52223, Replay: 0, Issue: 68257, SQCompares: 317156},
		FFStats{Windows: 299, SkippedCycles: 15247, Probes: 9024},
		pipeline.SkipStats{Writeback: 32719, Capture: 34435, Commit: 29965, Replay: 0, Issue: 33159, ParkedProbes: 12084}},
	{"baseline", "spin-mp", 16,
		pipeline.WorkStats{Steps: 356873, Writeback: 95185, Capture: 17, Commit: 92853, Replay: 0, Issue: 48664, SQCompares: 114},
		FFStats{Windows: 2283, SkippedCycles: 164221, Probes: 63107},
		pipeline.SkipStats{Writeback: 311997, Capture: 356856, Commit: 311936, Replay: 0, Issue: 319029, ParkedProbes: 0}},
	{"replay-all", "mcf", 1,
		pipeline.WorkStats{Steps: 45297, Writeback: 118557, Capture: 63448, Commit: 66784, Replay: 91814, Issue: 65897, SQCompares: 164015},
		FFStats{Windows: 1235, SkippedCycles: 188659, Probes: 21888},
		pipeline.SkipStats{Writeback: 24884, Capture: 29546, Commit: 17420, Replay: 12733, Issue: 26143, ParkedProbes: 6927}},
	{"replay-all", "ocean", 4,
		pipeline.WorkStats{Steps: 73457, Writeback: 81038, Capture: 27755, Commit: 63905, Replay: 87549, Issue: 53791, SQCompares: 291094},
		FFStats{Windows: 280, SkippedCycles: 11306, Probes: 5391},
		pipeline.SkipStats{Writeback: 58072, Capture: 63990, Commit: 48823, Replay: 43855, Issue: 58853, ParkedProbes: 7407}},
	{"replay-all", "spin-mp", 16,
		pipeline.WorkStats{Steps: 422476, Writeback: 95270, Capture: 17, Commit: 99112, Replay: 160893, Issue: 48708, SQCompares: 114},
		FFStats{Windows: 2253, SkippedCycles: 160536, Probes: 83938},
		pipeline.SkipStats{Writeback: 377525, Capture: 422459, Commit: 371354, Replay: 363903, Issue: 384562, ParkedProbes: 0}},
	{"no-reorder", "mcf", 1,
		pipeline.WorkStats{Steps: 45184, Writeback: 118666, Capture: 63420, Commit: 66464, Replay: 89418, Issue: 65844, SQCompares: 163279},
		FFStats{Windows: 1243, SkippedCycles: 188767, Probes: 22132},
		pipeline.SkipStats{Writeback: 24767, Capture: 29426, Commit: 17581, Replay: 13080, Issue: 26029, ParkedProbes: 6905}},
	{"no-reorder", "ocean", 4,
		pipeline.WorkStats{Steps: 75087, Writeback: 83639, Capture: 29247, Commit: 63652, Replay: 87151, Issue: 55742, SQCompares: 296759},
		FFStats{Windows: 286, SkippedCycles: 10906, Probes: 5846},
		pipeline.SkipStats{Writeback: 59322, Capture: 65256, Commit: 50571, Replay: 45628, Issue: 60110, ParkedProbes: 7889}},
	{"no-reorder", "spin-mp", 16,
		pipeline.WorkStats{Steps: 399984, Writeback: 95270, Capture: 17, Commit: 98477, Replay: 135597, Issue: 48708, SQCompares: 114},
		FFStats{Windows: 2264, SkippedCycles: 161960, Probes: 83083},
		pipeline.SkipStats{Writeback: 355033, Capture: 399967, Commit: 349494, Replay: 345565, Issue: 362070, ParkedProbes: 0}},
	{"no-recent-miss", "mcf", 1,
		pipeline.WorkStats{Steps: 44220, Writeback: 117794, Capture: 63741, Commit: 65120, Replay: 82939, Issue: 65737, SQCompares: 156512},
		FFStats{Windows: 1241, SkippedCycles: 189272, Probes: 23171},
		pipeline.SkipStats{Writeback: 24071, Capture: 28481, Commit: 17686, Replay: 13844, Issue: 25332, ParkedProbes: 6895}},
	{"no-recent-miss", "ocean", 4,
		pipeline.WorkStats{Steps: 65905, Writeback: 82380, Capture: 28780, Commit: 61078, Replay: 79204, Issue: 55243, SQCompares: 289437},
		FFStats{Windows: 278, SkippedCycles: 11999, Probes: 5214},
		pipeline.SkipStats{Writeback: 51700, Capture: 56413, Commit: 43610, Replay: 39421, Issue: 52372, ParkedProbes: 7522}},
	{"no-recent-miss", "spin-mp", 16,
		pipeline.WorkStats{Steps: 422476, Writeback: 95270, Capture: 17, Commit: 99112, Replay: 160888, Issue: 48708, SQCompares: 114},
		FFStats{Windows: 2253, SkippedCycles: 160536, Probes: 83938},
		pipeline.SkipStats{Writeback: 377525, Capture: 422459, Commit: 371354, Replay: 363903, Issue: 384562, ParkedProbes: 0}},
	{"no-recent-snoop", "mcf", 1,
		pipeline.WorkStats{Steps: 40235, Writeback: 115014, Capture: 62982, Commit: 60631, Replay: 60678, Issue: 65414, SQCompares: 142249},
		FFStats{Windows: 1326, SkippedCycles: 192337, Probes: 25756},
		pipeline.SkipStats{Writeback: 20633, Capture: 24805, Commit: 17176, Replay: 15760, Issue: 21901, ParkedProbes: 6612}},
	{"no-recent-snoop", "ocean", 4,
		pipeline.WorkStats{Steps: 44717, Writeback: 82888, Capture: 34413, Commit: 52861, Replay: 47210, Issue: 59610, SQCompares: 301908},
		FFStats{Windows: 310, SkippedCycles: 17071, Probes: 8423},
		pipeline.SkipStats{Writeback: 33311, Capture: 35387, Commit: 29784, Replay: 29306, Issue: 33790, ParkedProbes: 9492}},
	{"no-recent-snoop", "spin-mp", 16,
		pipeline.WorkStats{Steps: 387491, Writeback: 95234, Capture: 17, Commit: 96498, Replay: 100419, Issue: 48696, SQCompares: 114},
		FFStats{Windows: 2260, SkippedCycles: 162750, Probes: 75046},
		pipeline.SkipStats{Writeback: 342555, Capture: 387474, Commit: 338902, Replay: 335011, Issue: 349593, ParkedProbes: 0}},
	{"baseline-lq16", "mcf", 1,
		pipeline.WorkStats{Steps: 35641, Writeback: 78169, Capture: 32862, Commit: 56404, Replay: 0, Issue: 53524, SQCompares: 57480},
		FFStats{Windows: 1642, SkippedCycles: 258163, Probes: 21969},
		pipeline.SkipStats{Writeback: 17904, Capture: 22732, Commit: 16424, Replay: 0, Issue: 19354, ParkedProbes: 2009}},
	{"baseline-lq16", "ocean", 4,
		pipeline.WorkStats{Steps: 46789, Writeback: 68206, Capture: 22819, Commit: 50582, Replay: 0, Issue: 48682, SQCompares: 85597},
		FFStats{Windows: 522, SkippedCycles: 24022, Probes: 10073},
		pipeline.SkipStats{Writeback: 34401, Capture: 36935, Commit: 33351, Replay: 0, Issue: 35208, ParkedProbes: 1909}},
	{"baseline-lq16", "spin-mp", 16,
		pipeline.WorkStats{Steps: 355790, Writeback: 93279, Capture: 17, Commit: 92793, Replay: 0, Issue: 48469, SQCompares: 114},
		FFStats{Windows: 2287, SkippedCycles: 164316, Probes: 62707},
		pipeline.SkipStats{Writeback: 310976, Capture: 355773, Commit: 310915, Replay: 0, Issue: 318016, ParkedProbes: 0}},
	{"baseline-lq32", "mcf", 1,
		pipeline.WorkStats{Steps: 37156, Writeback: 93732, Capture: 47450, Commit: 57415, Replay: 0, Issue: 59362, SQCompares: 88375},
		FFStats{Windows: 1453, SkippedCycles: 219064, Probes: 23680},
		pipeline.SkipStats{Writeback: 18690, Capture: 22913, Commit: 16863, Replay: 0, Issue: 20031, ParkedProbes: 3880}},
	{"baseline-lq32", "ocean", 4,
		pipeline.WorkStats{Steps: 46409, Writeback: 79965, Capture: 33860, Commit: 51376, Replay: 0, Issue: 59388, SQCompares: 159917},
		FFStats{Windows: 420, SkippedCycles: 18330, Probes: 9803},
		pipeline.SkipStats{Writeback: 33750, Capture: 35794, Commit: 32108, Replay: 0, Issue: 34247, ParkedProbes: 6665}},
	{"baseline-lq32", "spin-mp", 16,
		pipeline.WorkStats{Steps: 355940, Writeback: 93783, Capture: 17, Commit: 92814, Replay: 0, Issue: 48521, SQCompares: 114},
		FFStats{Windows: 2283, SkippedCycles: 164289, Probes: 62631},
		pipeline.SkipStats{Writeback: 311102, Capture: 355923, Commit: 311042, Replay: 0, Issue: 318140, ParkedProbes: 0}},
	{"baseline-insulated", "mcf", 1,
		pipeline.WorkStats{Steps: 40677, Writeback: 127905, Capture: 68725, Commit: 58784, Replay: 0, Issue: 66631, SQCompares: 147055},
		FFStats{Windows: 1201, SkippedCycles: 139385, Probes: 27372},
		pipeline.SkipStats{Writeback: 21058, Capture: 25286, Commit: 18883, Replay: 0, Issue: 22093, ParkedProbes: 6933}},
	{"baseline-insulated", "ocean", 4,
		pipeline.WorkStats{Steps: 40785, Writeback: 80477, Capture: 34214, Commit: 50145, Replay: 0, Issue: 59175, SQCompares: 297008},
		FFStats{Windows: 283, SkippedCycles: 15384, Probes: 7685},
		pipeline.SkipStats{Writeback: 30418, Capture: 32095, Commit: 27684, Replay: 0, Issue: 30848, ParkedProbes: 10071}},
	{"baseline-insulated", "spin-mp", 16,
		pipeline.WorkStats{Steps: 389180, Writeback: 94985, Capture: 49, Commit: 92725, Replay: 0, Issue: 48768, SQCompares: 114},
		FFStats{Windows: 2368, SkippedCycles: 162646, Probes: 64674},
		pipeline.SkipStats{Writeback: 344432, Capture: 389131, Commit: 344355, Replay: 0, Issue: 351443, ParkedProbes: 0}},
	{"baseline-hybrid", "mcf", 1,
		pipeline.WorkStats{Steps: 39054, Writeback: 113993, Capture: 62854, Commit: 58410, Replay: 0, Issue: 65236, SQCompares: 135635},
		FFStats{Windows: 1378, SkippedCycles: 199894, Probes: 26044},
		pipeline.SkipStats{Writeback: 19608, Capture: 23701, Commit: 17688, Replay: 0, Issue: 20875, ParkedProbes: 6652}},
	{"baseline-hybrid", "ocean", 4,
		pipeline.WorkStats{Steps: 37970, Writeback: 79710, Capture: 33972, Commit: 50038, Replay: 0, Issue: 58721, SQCompares: 294622},
		FFStats{Windows: 303, SkippedCycles: 16494, Probes: 7324},
		pipeline.SkipStats{Writeback: 27709, Capture: 29364, Commit: 24978, Replay: 0, Issue: 28138, ParkedProbes: 10040}},
	{"baseline-hybrid", "spin-mp", 16,
		pipeline.WorkStats{Steps: 356873, Writeback: 95185, Capture: 17, Commit: 92853, Replay: 0, Issue: 48664, SQCompares: 114},
		FFStats{Windows: 2283, SkippedCycles: 164221, Probes: 63107},
		pipeline.SkipStats{Writeback: 311997, Capture: 356856, Commit: 311936, Replay: 0, Issue: 319029, ParkedProbes: 0}},
	{"baseline-bloom", "mcf", 1,
		pipeline.WorkStats{Steps: 39054, Writeback: 113993, Capture: 62854, Commit: 58410, Replay: 0, Issue: 65236, SQCompares: 135635},
		FFStats{Windows: 1378, SkippedCycles: 199894, Probes: 26044},
		pipeline.SkipStats{Writeback: 19608, Capture: 23701, Commit: 17688, Replay: 0, Issue: 20875, ParkedProbes: 6652}},
	{"baseline-bloom", "ocean", 4,
		pipeline.WorkStats{Steps: 45134, Writeback: 92199, Capture: 42078, Commit: 52223, Replay: 0, Issue: 68257, SQCompares: 317156},
		FFStats{Windows: 299, SkippedCycles: 15247, Probes: 9024},
		pipeline.SkipStats{Writeback: 32719, Capture: 34435, Commit: 29965, Replay: 0, Issue: 33159, ParkedProbes: 12084}},
	{"baseline-bloom", "spin-mp", 16,
		pipeline.WorkStats{Steps: 356873, Writeback: 95185, Capture: 17, Commit: 92853, Replay: 0, Issue: 48664, SQCompares: 114},
		FFStats{Windows: 2283, SkippedCycles: 164221, Probes: 63107},
		pipeline.SkipStats{Writeback: 311997, Capture: 356856, Commit: 311936, Replay: 0, Issue: 319029, ParkedProbes: 0}},
	{"baseline-hiersq", "mcf", 1,
		pipeline.WorkStats{Steps: 38956, Writeback: 114075, Capture: 62943, Commit: 58363, Replay: 0, Issue: 65521, SQCompares: 145954},
		FFStats{Windows: 1379, SkippedCycles: 199993, Probes: 25947},
		pipeline.SkipStats{Writeback: 19551, Capture: 23630, Commit: 17637, Replay: 0, Issue: 20633, ParkedProbes: 5086}},
	{"baseline-hiersq", "ocean", 4,
		pipeline.WorkStats{Steps: 46077, Writeback: 103568, Capture: 56287, Commit: 53951, Replay: 0, Issue: 82842, SQCompares: 437880},
		FFStats{Windows: 367, SkippedCycles: 15362, Probes: 10132},
		pipeline.SkipStats{Writeback: 31880, Capture: 33476, Commit: 29175, Replay: 0, Issue: 32358, ParkedProbes: 12054}},
	{"baseline-hiersq", "spin-mp", 16,
		pipeline.WorkStats{Steps: 356873, Writeback: 95185, Capture: 17, Commit: 92853, Replay: 0, Issue: 48664, SQCompares: 114},
		FFStats{Windows: 2283, SkippedCycles: 164221, Probes: 63107},
		pipeline.SkipStats{Writeback: 311997, Capture: 356856, Commit: 311936, Replay: 0, Issue: 319029, ParkedProbes: 0}},
	{"replay-vpred", "mcf", 1,
		pipeline.WorkStats{Steps: 46092, Writeback: 126209, Capture: 64691, Commit: 63104, Replay: 66850, Issue: 77414, SQCompares: 165353},
		FFStats{Windows: 1249, SkippedCycles: 177235, Probes: 27638},
		pipeline.SkipStats{Writeback: 24789, Capture: 29737, Commit: 20455, Replay: 18678, Issue: 25977, ParkedProbes: 6976}},
	{"replay-vpred", "ocean", 4,
		pipeline.WorkStats{Steps: 53784, Writeback: 82473, Capture: 31838, Commit: 55376, Replay: 58740, Issue: 58546, SQCompares: 299862},
		FFStats{Windows: 376, SkippedCycles: 14885, Probes: 8025},
		pipeline.SkipStats{Writeback: 41315, Capture: 44867, Commit: 36688, Replay: 34951, Issue: 42029, ParkedProbes: 9380}},
	{"replay-vpred", "spin-mp", 16,
		pipeline.WorkStats{Steps: 387491, Writeback: 95234, Capture: 17, Commit: 96498, Replay: 100419, Issue: 48696, SQCompares: 114},
		FFStats{Windows: 2260, SkippedCycles: 162750, Probes: 75046},
		pipeline.SkipStats{Writeback: 342555, Capture: 387474, Commit: 338902, Replay: 335011, Issue: 349593, ParkedProbes: 0}},
	{"nus-only", "mcf", 1,
		pipeline.WorkStats{Steps: 40235, Writeback: 115014, Capture: 62982, Commit: 60631, Replay: 60678, Issue: 65414, SQCompares: 142249},
		FFStats{Windows: 1326, SkippedCycles: 192337, Probes: 25756},
		pipeline.SkipStats{Writeback: 20633, Capture: 24805, Commit: 17176, Replay: 15760, Issue: 21901, ParkedProbes: 6612}},
	{"nus-only", "ocean", 4,
		pipeline.WorkStats{Steps: 40709, Writeback: 79566, Capture: 32874, Commit: 51493, Replay: 40936, Issue: 57529, SQCompares: 290888},
		FFStats{Windows: 295, SkippedCycles: 15503, Probes: 7370},
		pipeline.SkipStats{Writeback: 30256, Capture: 31983, Commit: 26933, Replay: 26775, Issue: 30666, ParkedProbes: 9579}},
	{"nus-only", "spin-mp", 16,
		pipeline.WorkStats{Steps: 387491, Writeback: 95234, Capture: 17, Commit: 96498, Replay: 100419, Issue: 48696, SQCompares: 114},
		FFStats{Windows: 2260, SkippedCycles: 162750, Probes: 75046},
		pipeline.SkipStats{Writeback: 342555, Capture: 387474, Commit: 338902, Replay: 335011, Issue: 349593, ParkedProbes: 0}},
	{"replay-lq32", "mcf", 1,
		pipeline.WorkStats{Steps: 38240, Writeback: 95497, Capture: 47591, Commit: 59543, Replay: 58836, Issue: 58954, SQCompares: 91925},
		FFStats{Windows: 1411, SkippedCycles: 211235, Probes: 23672},
		pipeline.SkipStats{Writeback: 19512, Capture: 23824, Commit: 16247, Replay: 14991, Issue: 20874, ParkedProbes: 3630}},
	{"replay-lq32", "ocean", 4,
		pipeline.WorkStats{Steps: 46314, Writeback: 69999, Capture: 25084, Commit: 52007, Replay: 46327, Issue: 51136, SQCompares: 139154},
		FFStats{Windows: 433, SkippedCycles: 19500, Probes: 8534},
		pipeline.SkipStats{Writeback: 34402, Capture: 37173, Commit: 32227, Replay: 31828, Issue: 34857, ParkedProbes: 4728}},
}

// keyed renders a struct of integer fields as a keyed Go literal.
func keyed(v any) string {
	rv := reflect.ValueOf(v)
	var b strings.Builder
	b.WriteString(strings.TrimPrefix(rv.Type().String(), "system."))
	b.WriteByte('{')
	for i := 0; i < rv.NumField(); i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %d", rv.Type().Field(i).Name, rv.Field(i).Interface())
	}
	b.WriteByte('}')
	return b.String()
}

// TestGoldenWork reruns the golden runs and compares their host work
// with the table. A change that makes a stage scan visit more entries,
// or the fast-forward probe more often, fails here even when its
// results are bit-identical; a failure prints each replacement row.
func TestGoldenWork(t *testing.T) {
	pinned := map[string]goldenWork{}
	for _, g := range goldenWorks {
		pinned[fmt.Sprintf("%s/%s/%d", g.machine, g.work, g.cores)] = g
	}
	for _, cell := range goldenCells() {
		t.Run(cell.key(), func(t *testing.T) {
			opt := Options{Cores: cell.cores, Seed: 3, DMAInterval: 4000, DMABurst: 2}
			s := New(cell.cfg, mustWork(t, cell.work), opt)
			s.Run(cell.insts, opt)
			got := goldenWork{cell.name, cell.work, cell.cores, s.WorkStats(), s.FastForwardStats(), s.StageSkipStats()}
			if want, ok := pinned[cell.key()]; !ok || want != got {
				t.Errorf("pinned %+v\nreplacement row:\n\t{%q, %q, %d,\n\t\t%s,\n\t\t%s,\n\t\t%s},",
					want, got.machine, got.work, got.cores, keyed(got.w), keyed(got.ff), keyed(got.sk))
			}
		})
	}
}

// arm selects the speed layers one side of an A/B window runs with.
type arm struct{ noFF, noSkip bool }

// speedWindow warms a machine, zeroes its statistics and runs the
// measured window under arm a. It returns the system and the
// fast-forward probes the window made.
func speedWindow(t *testing.T, machine, work string, cores int, warm, window uint64, a arm) (*System, int64) {
	t.Helper()
	cfg, ok := config.ByName(machine)
	if !ok {
		t.Fatalf("unknown machine %q", machine)
	}
	opt := Options{Cores: cores, Seed: 1, DMAInterval: 4000, DMABurst: 2,
		NoFastForward: a.noFF, NoStageSkip: a.noSkip}
	s := New(cfg, mustWork(t, work), opt)
	s.Advance(warm, opt)
	s.ResetStats()
	probes := s.FastForwardStats().Probes
	s.Advance(window, opt)
	return s, s.FastForwardStats().Probes - probes
}

// TestSpeedLayersAddNoWork runs six A/B windows, each with a speed
// layer on and off: fast-forward on the two spin cells, the stage skip
// on busy gzip and ocean cells and on spin with fast-forward off in both
// arms. The two arms must give identical results, and no work count of
// the on arm may exceed the off arm's. Where fast-forward is the
// layer, the on arm's Step calls and Quiescent probes together may not
// exceed the off arm's Step calls: a probe must cost no more than the
// step it saves.
func TestSpeedLayersAddNoWork(t *testing.T) {
	for _, tc := range []struct {
		name, machine, work string
		cores               int
		warm, window        uint64
		on, off             arm
	}{
		{"ff/spin", "baseline", "spin", 1, 2000, 20000, arm{}, arm{noFF: true}},
		{"ff/spin-mp", "baseline", "spin-mp", 16, 300, 1200, arm{}, arm{noFF: true}},
		{"skip/gzip", "baseline", "gzip", 1, 10000, 40000, arm{}, arm{noSkip: true}},
		{"skip/replay-all-gzip", "replay-all", "gzip", 1, 10000, 40000, arm{}, arm{noSkip: true}},
		{"skip/ocean", "baseline", "ocean", 4, 2000, 6000, arm{}, arm{noSkip: true}},
		{"skip/spin-noff", "baseline", "spin", 1, 2000, 20000, arm{noFF: true}, arm{noFF: true, noSkip: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			on, probes := speedWindow(t, tc.machine, tc.work, tc.cores, tc.warm, tc.window, tc.on)
			off, _ := speedWindow(t, tc.machine, tc.work, tc.cores, tc.warm, tc.window, tc.off)
			if on.CycleNum != off.CycleNum || !reflect.DeepEqual(on.Result(), off.Result()) {
				t.Fatalf("results differ:\n on:  %+v\n off: %+v", on.Result(), off.Result())
			}
			wOn, wOff := on.WorkStats(), off.WorkStats()
			von, voff := reflect.ValueOf(wOn), reflect.ValueOf(wOff)
			for i := 0; i < von.NumField(); i++ {
				if a, b := von.Field(i).Uint(), voff.Field(i).Uint(); a > b {
					t.Errorf("%s: on arm %d, off arm %d", von.Type().Field(i).Name, a, b)
				}
			}
			if tc.off.noFF && !tc.on.noFF {
				if wOn.Steps+uint64(probes) > wOff.Steps {
					t.Errorf("%d steps + %d probes with fast-forward, %d steps without",
						wOn.Steps, probes, wOff.Steps)
				}
			}
			t.Logf("on  %s, %d probes\noff %s", keyed(wOn), probes, keyed(wOff))
		})
	}
}
