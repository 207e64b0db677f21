package farm

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// expandKeys returns the cells and cache keys of a valid spec.
func expandKeys(t *testing.T, spec JobSpec) ([]Cell, []string) {
	t.Helper()
	cells, keys, err := cellsAndKeys(spec)
	if err != nil {
		t.Fatalf("valid spec %+v does not expand and key: %v", spec, err)
	}
	return cells, keys
}

// FuzzJobSpec decodes arbitrary bytes strictly, as the submit endpoint
// does. Decoding must never panic. A spec that validates must expand
// and key, and a marshal/unmarshal round trip must keep its JobID,
// cells and keys: the journal recovers specs that way, and a fresh
// resubmission reuses a held job's cells and keys on the strength of
// an equal spec.
func FuzzJobSpec(f *testing.F) {
	for _, spec := range []JobSpec{
		testSpec(), e2eSpec(), oneCellSpec(), farmSmokeSpec(), benchFarmSpec(), warmSpec(),
		{Litmus: &LitmusSpec{Runs: 3, Seed: 13}},
	} {
		raw, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, body := range []string{
		`{}`,
		`{"litmus":{"tests":[],"configs":[],"runs":1,"seed":0}}`,
		`{"litmus":{"runs":2,"seed":1,"cores":16,"fault":{"Kinds":[0,1],"Rate":0.5,"Seed":9,"Delay":0,"Max":0}}}`,
		`{"matrix":{"uni_instr":1000,"mp_instr":0,"mp_cores":4,"samples":0,"seed":2}}`,
		`{"bench":{"machines":["baseline"],"workloads":["gzip"],"cores":1,"warm":0,"window":1,"seed":0}}`,
		`{"litmus":{"runs":0}}`,
		`{"litmus":{"tests":["no-such-test"],"runs":1}}`,
		`{"litmus":{"runs":1},"bogus":1}`,
		`{"litmus":{"runs":1}} {}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		if decodeStrict(bytes.NewReader(body), &spec) != nil || spec.Validate() != nil {
			return
		}
		cells, keys := expandKeys(t, spec)

		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshalling a valid spec: %v", err)
		}
		var again JobSpec
		if err := decodeStrict(bytes.NewReader(raw), &again); err != nil {
			t.Fatalf("a marshalled spec does not decode: %v\n%s", err, raw)
		}
		if JobID(again) != JobID(spec) {
			t.Fatalf("round trip changed the job ID\nspec: %s", raw)
		}
		cells2, keys2 := expandKeys(t, again)
		if !reflect.DeepEqual(cells2, cells) || !reflect.DeepEqual(keys2, keys) {
			t.Fatalf("round trip changed the cells or keys\nspec: %s", raw)
		}
	})
}
