package platform

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/market"
)

// Selectors for the three write-route schemas; the fuzz target takes
// sel % 3.
const (
	selBatch byte = iota
	selWorker
	selTask
)

// oracleDecode is the decode the write routes did with encoding/json:
// one value, then nothing but whitespace.
func oracleDecode[T any](data []byte) (T, error) {
	var v T
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&v); err != nil {
		return v, err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return v, errors.New("trailing data after JSON value")
	}
	return v, nil
}

// decodeBoth runs the schema decoder and the oracle on one body.
func decodeBoth(sel byte, data []byte) (got, want any, gotErr, wantErr error) {
	switch sel % 3 {
	case selBatch:
		g, ge := decodeEventsJSON(data)
		w, we := oracleDecode[[]Event](data)
		return g, w, ge, we
	case selWorker:
		g, ge := decodeWorkerJSON(data)
		w, we := oracleDecode[market.Worker](data)
		return g, w, ge, we
	default:
		g, ge := decodeTaskJSON(data)
		w, we := oracleDecode[market.Task](data)
		return g, w, ge, we
	}
}

// checkOracle fails t unless both decoders reject data, or both accept it
// with deeply equal values.  It reports whether the body was accepted.
func checkOracle(t *testing.T, sel byte, data []byte) bool {
	t.Helper()
	got, want, gotErr, wantErr := decodeBoth(sel, data)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("sel %d body %q: schema decoder err %v, encoding/json err %v", sel%3, data, gotErr, wantErr)
	case gotErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("sel %d body %q:\n schema        %#v\n encoding/json %#v", sel%3, data, got, want)
	}
	return gotErr == nil
}

// ingestBatchJSON marshals one ingest-shaped churn batch over the
// 30-category freelance trace: n worker joins, n task posts, n worker
// leaves and n task closes.  n = 25 is the 100-event batch perfbench
// posts.
func ingestBatchJSON(tb testing.TB, seed uint64, n int) []byte {
	tb.Helper()
	in, err := market.Generate(market.FreelanceTraceConfig(n, n), seed)
	if err != nil {
		tb.Fatal(err)
	}
	events := make([]Event, 0, 4*n)
	for i := 0; i < n; i++ {
		w, task := in.Workers[i], in.Tasks[i]
		w.ID, task.ID = 0, 0
		events = append(events, NewWorkerJoined(w), NewTaskPosted(task),
			NewWorkerLeft(int(seed)*1000+i), NewTaskClosed(int(seed)*1000+i))
	}
	b, err := json.Marshal(events)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// nest wraps an unknown key's value in depth arrays inside a one-event
// batch, whose array and object add two more nesting levels.
func nest(depth int) string {
	return `[{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}]`
}

// decodeQuirks are the encoding/json behaviours the schema decoder must
// reproduce, each with the outcome go1.24's decoder gives.
var decodeQuirks = []struct {
	name   string
	sel    byte
	body   string
	accept bool
	check  func(v any) bool
}{
	{"fold: long s matches seq", selBatch, `[{"ſeq":5}]`, true,
		func(v any) bool { return v.([]Event)[0].Seq == 5 }},
	{"fold: escaped Kelvin sign matches kind", selBatch, `[{"\u212aind":"worker_left"}]`, true,
		func(v any) bool { return v.([]Event)[0].Kind == EventWorkerLeft }},
	{"fold: ASCII case", selWorker, `{"CAPACITY":2,"Specialties":[1]}`, true,
		func(v any) bool { w := v.(market.Worker); return w.Capacity == 2 && len(w.Specialties) == 1 }},
	{"fold: exact and folded keys share the field, last wins", selBatch, `[{"seq":2,"SEQ":1}]`, true,
		func(v any) bool { return v.([]Event)[0].Seq == 1 }},
	{"escaped key", selBatch, `[{"\u0073eq":9}]`, true,
		func(v any) bool { return v.([]Event)[0].Seq == 9 }},
	{"duplicate key reuses the slice's backing array", selBatch,
		`[{"worker":{"specialties":[1,2]},"worker":{"specialties":[null,null]}}]`, true,
		func(v any) bool { return reflect.DeepEqual(v.([]Event)[0].Worker.Specialties, []int{1, 2}) }},
	{"duplicate key re-exposes truncated elements", selWorker,
		`{"accuracy":[0.5,0.6,0.7],"accuracy":[0.9],"accuracy":[null,null,null]}`, true,
		func(v any) bool { return reflect.DeepEqual(v.(market.Worker).Accuracy, []float64{0.9, 0.6, 0.7}) }},
	{"duplicate key decodes into the same worker", selBatch,
		`[{"worker":{"capacity":3},"worker":{"interest":[0.5]}}]`, true,
		func(v any) bool {
			w := v.([]Event)[0].Worker
			return w.Capacity == 3 && reflect.DeepEqual(w.Interest, []float64{0.5})
		}},
	{"null leaves an int untouched", selWorker, `{"capacity":4,"capacity":null}`, true,
		func(v any) bool { return v.(market.Worker).Capacity == 4 }},
	{"null leaves a float untouched", selTask, `{"payment":2.5,"payment":null}`, true,
		func(v any) bool { return v.(market.Task).Payment == 2.5 }},
	{"null clears a pointer", selBatch, `[{"worker_id":7,"worker_id":null}]`, true,
		func(v any) bool { return v.([]Event)[0].WorkerID == nil }},
	{"null clears a slice", selWorker, `{"accuracy":[0.5],"accuracy":null}`, true,
		func(v any) bool { return v.(market.Worker).Accuracy == nil }},
	{"null element is a zero event", selBatch, `[null]`, true,
		func(v any) bool { return reflect.DeepEqual(v, []Event{{}}) }},
	{"empty batch is non-nil", selBatch, `[]`, true,
		func(v any) bool { e := v.([]Event); return e != nil && len(e) == 0 }},
	{"empty profile slice is non-nil", selWorker, `{"specialties":[]}`, true,
		func(v any) bool { s := v.(market.Worker).Specialties; return s != nil && len(s) == 0 }},
	{"top-level null is a nil batch", selBatch, `null`, true,
		func(v any) bool { return v.([]Event) == nil }},
	{"top-level null is a zero worker", selWorker, ` null `, true,
		func(v any) bool { return reflect.DeepEqual(v, market.Worker{}) }},
	{"unknown keys are skipped", selBatch,
		`[{"x":{"a":[true,false,null,"s\u00e9\n",1e400,-0.5E+3,{}]},"kind":"task_closed","task_id":3,"y":[]}]`, true,
		func(v any) bool { e := v.([]Event)[0]; return e.Kind == EventTaskClosed && *e.TaskID == 3 }},
	{"unknown key with invalid value", selBatch, `[{"x":[1,]}]`, false, nil},
	{"unknown key with misspelled literal", selTask, `{"x":tru}`, false, nil},
	{"unknown key with invalid number", selTask, `{"x":01}`, false, nil},
	{"invalid UTF-8 becomes U+FFFD", selBatch, "[{\"kind\":\"worker_joined\xff\"}]", true,
		func(v any) bool { return v.([]Event)[0].Kind == "worker_joined\uFFFD" }},
	{"lone surrogate becomes U+FFFD", selBatch, `[{"kind":"\ud800x"}]`, true,
		func(v any) bool { return v.([]Event)[0].Kind == "\uFFFDx" }},
	{"surrogate pair decodes", selBatch, `[{"kind":"\ud800\ud83d\ude00"}]`, true,
		func(v any) bool { return v.([]Event)[0].Kind == "\uFFFD\U0001F600" }},
	{"control character in string", selBatch, "[{\"kind\":\"a\x01\"}]", false, nil},
	{"1.0 into an int", selWorker, `{"capacity":1.0}`, false, nil},
	{"int overflow", selWorker, `{"capacity":9223372036854775808}`, false, nil},
	{"-1 into seq", selBatch, `[{"seq":-1}]`, false, nil},
	{"-0 into seq", selBatch, `[{"seq":-0}]`, false, nil},
	{"-1 into epoch", selBatch, `[{"epoch":-1}]`, false, nil},
	{"1e400 into a float", selTask, `{"payment":1e400}`, false, nil},
	{"1e-400 underflows to zero", selTask, `{"payment":1e-400}`, true,
		func(v any) bool { return v.(market.Task).Payment == 0 }},
	{"string into an int", selWorker, `{"capacity":"1"}`, false, nil},
	{"number into kind", selBatch, `[{"kind":1}]`, false, nil},
	{"object into a batch", selBatch, `{}`, false, nil},
	{"array into a worker", selWorker, `[]`, false, nil},
	{"leading BOM", selBatch, "\xef\xbb\xbf[]", false, nil},
	{"type error after a valid event", selBatch, `[{"kind":"worker_left","worker_id":1},{"seq":"x"}]`, false, nil},
	{"type error inside a valid body", selTask, `{"category":true,"replication":1}`, false, nil},
	{"trailing garbage", selBatch, `[]x`, false, nil},
	{"trailing value", selTask, `{} {}`, false, nil},
	{"trailing whitespace", selBatch, "[] \n\t\r", true, nil},
	{"trailing comma", selWorker, `{"capacity":1,}`, false, nil},
	{"empty body", selTask, ``, false, nil},
	{"whitespace-only body", selTask, " \n", false, nil},
	{"nesting at the limit", selBatch, nest(maxJSONDepth - 2), true, nil},
	{"nesting past the limit", selBatch, nest(maxJSONDepth - 1), false, nil},
}

// TestDecodeMatchesEncodingJSON pins each encoding/json quirk the schema
// decoder reproduces: the oracle must still behave as listed, and the
// schema decoder must agree with it value for value.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, q := range decodeQuirks {
		t.Run(q.name, func(t *testing.T) {
			got, want, gotErr, wantErr := decodeBoth(q.sel, []byte(q.body))
			if (wantErr == nil) != q.accept {
				t.Fatalf("encoding/json err %v, want accept=%v", wantErr, q.accept)
			}
			if q.check != nil && !q.check(want) {
				t.Fatalf("encoding/json decoded %#v, not the listed quirk", want)
			}
			if (gotErr == nil) != q.accept {
				t.Fatalf("schema decoder err %v, want accept=%v", gotErr, q.accept)
			}
			if q.accept && !reflect.DeepEqual(got, want) {
				t.Fatalf("schema decoder %#v, encoding/json %#v", got, want)
			}
		})
	}
	for seed := uint64(1); seed <= 2; seed++ {
		if !checkOracle(t, selBatch, ingestBatchJSON(t, seed, 25)) {
			t.Fatalf("ingest batch %d rejected", seed)
		}
	}
}

// TestSchemaFieldsMatchStructTags keeps the decoder's key lists in step
// with the structs' json tags.
func TestSchemaFieldsMatchStructTags(t *testing.T) {
	for _, c := range []struct {
		typ reflect.Type
		fs  fieldSet
	}{
		{reflect.TypeOf(Event{}), eventFields},
		{reflect.TypeOf(market.Worker{}), workerFields},
		{reflect.TypeOf(market.Task{}), taskFields},
	} {
		var tags []string
		for i := 0; i < c.typ.NumField(); i++ {
			tags = append(tags, strings.Split(c.typ.Field(i).Tag.Get("json"), ",")[0])
		}
		if !reflect.DeepEqual(tags, c.fs.names) {
			t.Errorf("%s: json tags %v, decoder keys %v", c.typ, tags, c.fs.names)
		}
	}
}

// FuzzDecodeBatch is the differential check of the write routes'
// decoders: sel picks the batch, worker or task schema, and the schema
// decoder must reject exactly what encoding/json rejects and otherwise
// produce deeply equal values.
func FuzzDecodeBatch(f *testing.F) {
	// Seeds stay small: minimising what the fuzzer derives from a
	// multi-kilobyte input (the nesting-limit bodies, a 100-event batch)
	// stalls the search for tens of seconds.
	for _, q := range decodeQuirks {
		if len(q.body) < 1024 {
			f.Add(q.sel, []byte(q.body))
		}
	}
	for seed := uint64(1); seed <= 2; seed++ {
		f.Add(selBatch, ingestBatchJSON(f, seed, 1))
	}
	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		checkOracle(t, sel, data)
	})
}

// BenchmarkDecodeBatch decodes one ingest-shaped 100-event batch with
// encoding/json and with the schema decoder.
func BenchmarkDecodeBatch(b *testing.B) {
	body := ingestBatchJSON(b, 1, 25)
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := oracleDecode[[]Event](body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("schema", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := decodeEventsJSON(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
