// Command e2ebench is the repository's end-to-end benchmark. It runs
// the vpm-node / vpm-fleet epoch pipeline — trace → netsim replay →
// collect → seal, encode and sign → dissemination → window ingest →
// rolling verification (→ segstore → query API) — on one named
// workload, checks the verdict stream against the in-process
// reference, and prints every metric with its unit; the last line is
// one JSON object.
//
//	bash e2ebench/run.sh --workload fig1-deep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics: the median of three
// untraced passes. With --trace 1 it runs one untraced pass and one
// pass with every call into a layer timed from outside, and prints the
// per-layer metrics of the traced pass plus the tracing overhead.
// See README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"vpm/internal/core"
)

// world is one built pipeline of a workload, ready to run once.
type world interface {
	run() error
	stream() *stream
	close() error
}

// workload is one named set of inputs.
type workload struct {
	name string
	// epochs sizes one pass of a run of the given length.
	epochs    func(seconds int) int
	build     func(seed uint64, epochs int, dir string, tr *tracer) (world, error)
	reference func(seed uint64, epochs int) ([]core.EpochReport, error)
}

// A run makes passes timed passes over fresh builds of the same
// inputs and reports the median of each metric, so one pass disturbed
// by the machine does not move the result. Verdict lags are pooled
// across passes. A pass has at least minEpochs epochs: the last few
// epochs of a stream are released together at its end, and a longer
// pass keeps them above the lag p90 instead of deciding it.
const (
	passes    = 3
	minEpochs = 100
	// setupBuilds is how many builds set-up time is the median of.
	setupBuilds = 5
)

// The workloads' sizes; README.md gives the reasons.
var (
	fig1Deep = fig1Spec{ratePPS: 100_000, intervalNS: 250e6}
	meshWide = meshSpec{domains: 100, extraLinks: 50, keys: 16384, intervalNS: 100e6, ratePPS: 10_000}
)

var workloads = workloadsFor(fig1Deep, meshWide)

// workloadsFor names the workloads at the given sizes (the benchmark's
// own test runs them smaller).
func workloadsFor(deep fig1Spec, mesh meshSpec) []workload {
	// perSecond sizes one pass so that a run's passes together take
	// about the given seconds at n epochs per second, the rate each
	// workload runs at on the reference box (README.md).
	perSecond := func(n int) func(int) int {
		return func(seconds int) int { return max(minEpochs, seconds*n/passes) }
	}
	return []workload{
		{
			name:   "fig1-deep",
			epochs: perSecond(18),
			build: func(seed uint64, epochs int, dir string, tr *tracer) (world, error) {
				return deep.build(seed, epochs, dir, tr)
			},
			reference: deep.reference,
		},
		{
			name:   "mesh-wide",
			epochs: perSecond(8),
			build: func(seed uint64, epochs int, _ string, tr *tracer) (world, error) {
				return mesh.build(seed, epochs, tr)
			},
			reference: mesh.reference,
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload name: fig1-deep or mesh-wide")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "run length the workload is sized for")
	traced := flag.Int("trace", 0, "1: also run traced and print the per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: e2ebench --workload fig1-deep|mesh-wide --seed N --seconds N>0 --trace 0|1\n")
		os.Exit(2)
	}
	out, err := measure(w, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench %s seed %d: %v\n", w.name, *seed, err)
		os.Exit(1)
	}
	out.print(os.Stdout)
}

// workDir is where the benchmark keeps its store directories: inside
// the working tree, removed again when the run ends.
func workDir() (string, error) {
	dir := filepath.Join(".bench_build", "e2ebench-run", fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// measure runs one workload: setupBuilds builds (set-up time is
// their median), the first passes of which also run a timed pass;
// with traced, one untraced and one traced pass instead; last the
// reference and the gate.
func measure(w workload, seed uint64, seconds int, traced bool) (*output, error) {
	dir, err := workDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	epochs := w.epochs(seconds)
	env := environment(seed)
	env["workload"] = w.name
	env["epochs_per_pass"] = fmt.Sprint(epochs)

	runs := passes
	if traced {
		runs = 1 // the untraced baseline the tracing overhead is quoted against
	}
	var setups []float64
	var plain []*pass
	for i := 0; i < max(setupBuilds, runs); i++ {
		runtime.GC()
		start := time.Now()
		wld, err := w.build(seed, epochs, filepath.Join(dir, fmt.Sprintf("store-%d", i)), nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		var p *pass
		if i < runs {
			p, err = timedPass(wld, nil)
			plain = append(plain, p)
		}
		if cerr := wld.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}

	var tp *pass
	if traced {
		tr := newTracer()
		wld, err := w.build(seed, epochs, filepath.Join(dir, "store-traced"), tr)
		if err != nil {
			return nil, fmt.Errorf("traced setup: %w", err)
		}
		tp, err = timedPass(wld, tr)
		if cerr := wld.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}

	// The gate: the reference runs after the timed phases, so neither
	// its time nor its memory is measured.
	ref, err := w.reference(seed, epochs)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	refFP, err := fingerprint(ref)
	if err != nil {
		return nil, err
	}
	env["fingerprint"] = refFP
	for _, p := range append(plain, tp) {
		if p != nil && p.fingerprint != refFP {
			return nil, fmt.Errorf("verdict stream %s (traced=%v) differs from the reference %s", p.fingerprint, p.traced, refFP)
		}
	}
	out := &output{env: env, extra: summary(plain)}
	if traced {
		out.metrics = perLayer(tp, plain[0])
		out.attempted, out.failed = tp.ops()
	} else {
		out.metrics = endToEnd(plain, setups)
		for _, p := range plain {
			a, f := p.ops()
			out.attempted += a
			out.failed += f
		}
	}
	return out, nil
}

// output is what one invocation prints.
type output struct {
	env               map[string]string
	metrics           []metric
	extra             []metric
	attempted, failed int
}

// metric is one named, united value.
type metric struct {
	name  string
	value float64
	unit  string
}

// print writes the environment, every metric with its unit, and the
// result line.
func (o *output) print(f *os.File) {
	keys := make([]string, 0, len(o.env))
	for k := range o.env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(f, "# %s: %s\n", k, o.env[k])
	}
	for _, m := range o.extra {
		fmt.Fprintf(f, "  %-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	ms := make(map[string]any, len(o.metrics))
	for _, m := range o.metrics {
		fmt.Fprintf(f, "%-30s %14.6g %s\n", m.name, m.value, m.unit)
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   ms,
	})
	if err != nil {
		panic(err) // plain maps of numbers and strings
	}
	fmt.Fprintln(f, string(line))
}

// environment records where and on what the numbers were measured.
func environment(seed uint64) map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"seed":       fmt.Sprint(seed),
		"network":    "loopback only (127.0.0.1); no traffic leaves the host",
	}
	return env
}
