package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadTrace: trace files are untrusted bytes (cos-trace reads
// whatever it is pointed at), so no input may panic ReadVersioned or
// Summarize, and any stream ReadVersioned accepts must survive a Writer round
// trip: writing its events and reading them back gives equal events. The
// Writer omits empty lists and maps, so an explicit `[]` or `{}` reads
// back as nil; equality is checked after mapping the first read's empty
// collections to nil, and nothing else may change.
func FuzzReadTrace(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "serve", "testdata", "jobtrace_v2.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	var sample bytes.Buffer
	w := NewWriter(&sample)
	for _, e := range sampleEvents() {
		if err := w.Write(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(sample.Bytes())
	for _, s := range []string{
		"{\"cos_trace_schema\":1}\n{\"seq\":0,\"data_ok\":true,\"rate_mbps\":24,\"control_bits\":16,\"control_ok\":true}\n",
		"{\"seq\":0,\"data_ok\":true}\n{\"seq\":1,\"rate_mbps\":24}\n",
		"{\"cos_trace_schema\":1}\n{\"seq\":0,\"data_ok\":true,\"erasure_count\":12,\"pipeline_stage_ns\":{\"tx\":100}}\n",
		"{\"seq\":0}\nnot json\n",
		"{\"control_subcarriers\":[],\"stage_ns\":{},\"probe\":{\"evm\":[]}}\n",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, _, err := ReadVersioned(bytes.NewReader(data))
		if _, serr := Summarize(events); serr == nil && len(events) == 0 {
			t.Fatal("Summarize accepted an empty trace")
		}
		if err != nil {
			return
		}
		var out strings.Builder
		w := NewWriter(&out)
		for _, e := range events {
			if err := w.Write(e); err != nil {
				t.Fatalf("Write of an accepted event %+v: %v", e, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		back, _, err := ReadVersioned(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("ReadVersioned of the Writer's own output: %v\n%s", err, out.String())
		}
		emptyToNil(reflect.ValueOf(&events).Elem())
		if !reflect.DeepEqual(events, back) {
			t.Fatalf("events changed across a Writer round trip:\n read: %+v\n back: %+v", events, back)
		}
	})
}

// emptyToNil sets every zero-length slice or map reachable from v to nil.
func emptyToNil(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			emptyToNil(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			emptyToNil(v.Field(i))
		}
	case reflect.Slice, reflect.Map:
		if v.Len() == 0 {
			v.Set(reflect.Zero(v.Type()))
		} else if v.Kind() == reflect.Slice {
			for i := 0; i < v.Len(); i++ {
				emptyToNil(v.Index(i))
			}
		}
	}
}
