package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func encodeLine(res *result, metrics map[string]metric) ([]byte, error) {
	return json.Marshal(resultLine{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: metrics})
}

// reportEndToEnd prints every end-to-end metric under its per-request
// name, with unit, sample count and tail percentile, and returns the
// result line.  The result line names latencies by role (primary_*,
// write_*) so that every workload reports every metric.  It leaves out the
// write tail, the least steady figure from one seed to the next, and
// mutual_per_round and failed_frac, which are 0 on some workload; all
// three are printed.
func reportEndToEnd(buf *bytes.Buffer, w *workload, res *result) ([]byte, error) {
	setup := medianOf(res.setupS)
	fmt.Fprintf(buf, "setup_s %.4f s (median of %d episode set-ups:", setup, len(res.setupS))
	for _, s := range res.setupS {
		fmt.Fprintf(buf, " %.4f", s)
	}
	buf.WriteString(")\n")
	for _, kind := range []string{"submit", "batch", "round"} {
		s := summarize(res.lat[kind])
		if s.N == 0 {
			continue
		}
		fmt.Fprintf(buf, "%s_p50_ms %.4f ms (n=%d)\n", kind, s.P50, s.N)
		fmt.Fprintf(buf, "%s_tail_ms %.4f ms (p%g, n=%d, %d beyond)\n", kind, s.Tail, s.TailPc, s.N, s.N-int(math.Ceil(float64(s.N)*s.TailPc/100)))
	}
	eps := float64(res.events) / res.wall.Seconds()
	fmt.Fprintf(buf, "events_per_s %.1f events/s (%d events in %.3f s)\n", eps, res.events, res.wall.Seconds())
	if mutual, n := mutualPerRound(res.rounds); n > 0 {
		fmt.Fprintf(buf, "mutual_per_round %s benefit (n=%d)\n", strconv.FormatFloat(mutual, 'g', -1, 64), n)
	}
	fmt.Fprintf(buf, "failed_frac %g fraction (%d of %d requests)\n", float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	rss := peakRSSMB()
	fmt.Fprintf(buf, "peak_rss_mb %.1f MB\n", rss)
	fmt.Fprintf(buf, "digest rounds=%d rounds_sha=%s journal_sha=%s\n", len(res.rounds), res.digest, res.journal)

	prim, write := summarize(res.lat[w.primaryKind()]), summarize(res.lat[w.writeKind()])
	return encodeLine(res, map[string]metric{
		"setup_s":         {setup, "s"},
		"primary_p50_ms":  {prim.P50, "ms"},
		"primary_tail_ms": {prim.Tail, "ms"},
		"write_p50_ms":    {write.P50, "ms"},
		"events_per_s":    {eps, "events/s"},
		"peak_rss_mb":     {rss, "MB"},
	})
}

// mutualPerRound is the mean TotalMutual over the timed rounds.
func mutualPerRound(rounds []roundRec) (float64, int) {
	sum, n := 0.0, 0
	for _, r := range rounds {
		if r.timed {
			sum += r.mutual
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// spanMS returns each span's duration, or its self time, in ms.
func spanMS(ss []span, self bool) []float64 {
	out := make([]float64, len(ss))
	for i := range ss {
		d := ss[i].dur()
		if self {
			d = ss[i].Self
		}
		out[i] = float64(d) / 1e6
	}
	return out
}

func total(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerRow is one per-layer metric.
type layerRow struct {
	name  string
	value float64
	unit  string
	n     int
}

// reportLayers prints the per-layer table of a traced run and returns the
// result line.  Span-derived rows come from the traced phase; runtime and
// admission counters, which need no spans, from the untraced one.  A layer
// a workload does not exercise reports 0.
func reportLayers(buf *bytes.Buffer, w *workload, plain, traced *result, spans []span) ([]byte, error) {
	by := map[string][]span{}
	var client []span
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], s)
		if strings.HasPrefix(s.Name, "client.") {
			client = append(client, s)
		}
	}
	med := func(ss []span, self bool) float64 { return summarizeMS(spanMS(ss, self)).P50 }
	roundMS := total(spanMS(by["client.round"], false))
	solve := summarizeMS(spanMS(by["solve"], false))
	appends := append(append([]span(nil), by["journal.append"]...), by["journal.append_batch"]...)
	journaled := 0
	for _, s := range appends {
		journaled += s.Events
	}
	var n, warm, fallbacks int
	var dirty float64
	var ckpt []float64
	for _, r := range traced.rounds {
		if !r.timed {
			continue
		}
		n++
		if r.warm {
			warm++
		}
		if r.fallback {
			fallbacks++
		}
		dirty += r.dirty
		if r.checkpointed {
			ckpt = append(ckpt, ms(r.lat))
		}
	}
	plainP50 := summarize(plain.lat[w.primaryKind()]).P50
	tracedP50 := summarize(traced.lat[w.primaryKind()]).P50

	rows := []layerRow{
		{"http.submit.p50_ms", med(by["http.submit"], true), "ms", len(by["http.submit"])},
		{"http.batch.p50_ms", med(by["http.batch"], true), "ms", len(by["http.batch"])},
		{"http.round.p50_ms", med(by["http.round"], true), "ms", len(by["http.round"])},
		{"wire.p50_ms", med(client, true), "ms", len(client)},
		{"admission.shed", float64(plain.shed), "count", plain.attempted},
		{"admission.inflight_limit", plain.limit, "count", 1},
		{"service.submit.p50_ms", med(by["service.submit"], false), "ms", len(by["service.submit"])},
		{"service.batch.p50_ms", med(by["service.batch"], false), "ms", len(by["service.batch"])},
		{"service.round.p50_ms", med(by["service.round"], false), "ms", len(by["service.round"])},
		{"journal.append.p50_ms", med(by["journal.append"], false), "ms", len(by["journal.append"])},
		{"journal.append_batch.p50_ms", med(by["journal.append_batch"], false), "ms", len(by["journal.append_batch"])},
		{"journal.appends", float64(len(appends)), "count", len(appends)},
		{"journal.events_per_append", ratio(float64(journaled), float64(len(appends))), "events", len(appends)},
		{"journal.bytes_per_event", ratio(float64(traced.segBytes), float64(traced.segEvents)), "bytes", int(traced.segEvents)},
		{"solve.p50_ms", solve.P50, "ms", solve.N},
		{"solve.tail_ms", solve.Tail, "ms", solve.N},
		{"solve.share", ratio(total(spanMS(by["solve"], false)), roundMS), "fraction", solve.N},
		{"round.rest.p50_ms", med(by["service.round"], true), "ms", len(by["service.round"])},
		{"round.rest.share", ratio(total(spanMS(by["service.round"], true)), roundMS), "fraction", len(by["service.round"])},
		{"incremental.warm_frac", ratio(float64(warm), float64(n)), "fraction", n},
		{"incremental.dirty_mean", ratio(dirty, float64(n)), "fraction", n},
		{"incremental.fallbacks", float64(fallbacks), "count", n},
		{"checkpoint.rounds", float64(len(ckpt)), "count", n},
		{"checkpoint.round.p50_ms", summarizeMS(ckpt).P50, "ms", len(ckpt)},
		{"process.cpu_s", plain.cpuS, "s", 1},
		{"gc.cycles", float64(plain.gcCycles), "count", 1},
		{"gc.pause_ms", plain.gcPauseMS, "ms", int(plain.gcCycles)},
		{"trace.overhead_frac", ratio(tracedP50, plainP50) - 1, "fraction", len(traced.lat[w.primaryKind()])},
		{"trace.spans", float64(len(spans)), "count", len(spans)},
	}
	fmt.Fprintf(buf, "# tracing overhead: %s p50 %.4f ms untraced, %.4f ms traced\n", w.primaryKind(), plainP50, tracedP50)
	metrics := map[string]metric{}
	for _, r := range rows {
		fmt.Fprintf(buf, "layer %-28s %14.4f %-8s n=%d\n", r.name, r.value, r.unit, r.n)
		metrics[r.name] = metric{r.value, r.unit}
	}
	return encodeLine(traced, metrics)
}
