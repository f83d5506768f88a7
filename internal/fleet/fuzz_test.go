package fleet

import (
	"encoding/json"
	"testing"

	"cos/internal/experiments"
	"cos/internal/serve"
)

// FuzzTaskRecords: a figure_task body is untrusted bytes from a backend,
// so no body may panic the fleet's record decode or the figure's Assemble;
// a malformed record is an error. Every registered figure is fed the
// fuzzed body verbatim as each task's result, and the fuzzed record
// wrapped in a well-formed TaskRecord for each task index.
func FuzzTaskRecords(f *testing.F) {
	// Each of the next three records once panicked an Assemble: fig7 with
	// no EVM values, ablation-quantization with a short PRR row, and fig6
	// with a negative error position.
	f.Add([]byte(`{"type":"figure_task","figure":"fig3","task":0,"record":{"BER":0.01}}`), []byte(`{"BER":0.01}`))
	f.Add([]byte(`{"record":[]}`), []byte(`[0.5]`))
	f.Add([]byte(`{"type":"figure_task","figure":"fig6","task":0,"record":{}}`), []byte(`{"error_positions":[-1]}`))
	f.Add([]byte(`{"type":"figure_task","figure":"fig2","task":0,"record":null}`+"\n"), []byte(`null`))
	f.Add([]byte(``), []byte(`{}`))
	f.Add([]byte(`{"task":-1}`), []byte(`{"Points":[{}],"Rates":[1e308,-1e308]}`))

	opts := experiments.RunOptions{Scale: 0.05, Seed: 1}
	ids := experiments.IDs()
	sets := make([]experiments.TaskSet, len(ids))
	for i, id := range ids {
		ts, ok := experiments.Tasks(id, opts)
		if !ok {
			f.Fatalf("no task set for registered figure %q", id)
		}
		sets[i] = ts
	}
	f.Fuzz(func(t *testing.T, body, record []byte) {
		for k, id := range ids {
			ts := sets[k]
			n := ts.NumTasks()
			bodies := make([][]byte, n)
			for i := range bodies {
				bodies[i] = body
			}
			if recs, err := decodeTaskRecords(id, bodies); err == nil {
				_, _ = ts.Assemble(recs)
			}

			if !json.Valid(record) {
				continue
			}
			for i := range bodies {
				b, err := json.Marshal(serve.TaskRecord{Type: "figure_task", Figure: id, Task: i, Record: record})
				if err != nil {
					t.Fatal(err)
				}
				bodies[i] = append(b, '\n')
			}
			recs, err := decodeTaskRecords(id, bodies)
			if err != nil {
				t.Fatalf("%s: well-formed task records failed to decode: %v", id, err)
			}
			_, _ = ts.Assemble(recs)
		}
	})
}
