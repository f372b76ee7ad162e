// Command mbaperf is the repository's end-to-end benchmark.  It runs one
// workload against a real platform.Server on a loopback listener (binary
// journal with group commit and fsync, admission control, periodic
// checkpoints), driven by closed-loop HTTP clients in the same process,
// checks the outputs, and prints every metric.  The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones.  With -trace 1 the
// workload runs twice with the same inputs, untraced and then with every
// layer wrapped in a timing span; the metrics are the per-layer ones plus
// the tracing overhead.  A failed correctness check exits 1 and prints no
// numbers.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload rounds-greedy --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: ingest, rounds-greedy or rounds-incremental")
		seed    = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "nominal length of the timed phase; fixes its number of cycles")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for market data and span files")
	)
	flag.Parse()
	err := func() error {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		if *seconds < 1 || (*trace != 0 && *trace != 1) {
			return fmt.Errorf("bad -seconds %d or -trace %d", *seconds, *trace)
		}
		return bench(os.Stdout, w, *seed, *seconds, *trace == 1, *out)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbaperf:", err)
		os.Exit(1)
	}
}

// bench runs one workload and writes its report, only once every check
// has passed.
func bench(stdout io.Writer, w *workload, seed uint64, seconds int, traced bool, out string) error {
	cycles := w.timedCycles(seconds)
	base, err := filepath.Abs(filepath.Join(out, fmt.Sprintf("data-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(base)

	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# workload %s, seed %d: %d episodes x %d client(s) x (%d warm-up + %d timed cycles), trace %v\n",
		w.name, seed, w.episodes, w.clients, w.warmup, cycles, traced)
	fmt.Fprintf(&buf, "# GOMAXPROCS %d, %d CPUs, %s, data dir on %s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), filesystem(base))
	var line []byte
	if !traced {
		res, err := measure(w, seed, cycles, base, nil)
		if err != nil {
			return err
		}
		if line, err = reportEndToEnd(&buf, w, res); err != nil {
			return err
		}
	} else {
		plain, err := measure(w, seed, cycles, filepath.Join(base, "plain"), nil)
		if err != nil {
			return err
		}
		tr := newTracer()
		res, err := measure(w, seed, cycles, filepath.Join(base, "traced"), tr)
		if err != nil {
			return err
		}
		if plain.digest != res.digest || plain.journal != res.journal {
			return fmt.Errorf("tracing changed the program: rounds %s vs %s, journal %s vs %s",
				plain.digest, res.digest, plain.journal, res.journal)
		}
		spans := tr.finish()
		path := filepath.Join(out, "trace", fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := writeSpans(path, spans); err != nil {
			return err
		}
		fmt.Fprintf(&buf, "# %d spans written to %s; untraced and traced rounds %s, journal %s\n",
			len(spans), path, res.digest, res.journal)
		if line, err = reportLayers(&buf, w, plain, res, spans); err != nil {
			return err
		}
	}
	buf.Write(line)
	buf.WriteByte('\n')
	_, err = stdout.Write(buf.Bytes())
	return err
}
