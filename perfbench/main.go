// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against an in-process spatiald over the TCP wire protocol,
// checks every answer against a software-only oracle, and prints one
// JSON result line:
//
//	go run . --workload select --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload untraced then traced (the difference is the tracing overhead),
// times calls into each layer's public functions, and reports the
// per-layer metrics. NOTES.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupReps is how many times a run sets its deployment up; setup_s is
// the median, so one slow file-system moment does not move it.
const setupReps = 3

// deployment is one workload's running system: servers, clients and the
// data they serve.
type deployment interface {
	// cold runs the cold phase (first queries on freshly loaded or
	// mutated state), adding the cost of each first query to cold. It
	// starts no cycle after until, except the first.
	cold(until time.Time, rec *recorder, cold *costs) error
	// loop runs the steady closed-loop phase until the deadline.
	loop(until time.Time, rec *recorder, tr *tracer) error
	// probe times calls into each layer (traced run only).
	probe(tr *tracer, m metrics) error
	// detail adds the workload's own end-to-end figures.
	detail(rec *recorder, d map[string]any)
	// close tears the deployment down and runs post-run checks.
	close(rec *recorder) error
}

type setupFunc func(in *inputs, dir string) (deployment, error)

var workloads = map[string]setupFunc{
	"select": setupSelect,
	"join":   setupJoin,
	"ingest": setupIngest,
	"fleet":  setupFleet,
}

// metrics maps a metric name to its value; units come from unitOf.
type metrics map[string]float64

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: select, join, ingest or fleet")
	seed := flag.Int64("seed", 1, "workload seed (query polygons, insert blobs, client phases)")
	seconds := flag.Float64("seconds", 20, "measured window per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"), "scratch directory for snapshots, WALs and trace dumps")
	flag.Parse()

	setup, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload select|join|ingest|fleet, --seconds > 0, --trace 0|1\n")
		return 2
	}
	res, err := measure(*name, setup, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for k, v := range res.detail {
		if f, ok := v.(float64); ok && (math.IsNaN(f) || math.IsInf(f, 0)) {
			res.detail[k] = nil // no samples of that kind in this run
		}
	}
	detail, err := json.Marshal(res.detail)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(detail))
	out, err := json.Marshal(res.line())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

type result struct {
	attempted, failed int
	metrics           metrics
	detail            map[string]any
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r result) line() any {
	ms := map[string]metricOut{}
	for k, v := range r.metrics {
		ms[k] = metricOut{Value: v, Unit: unitOf(k)}
	}
	return struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, ms}
}

func measure(name string, setup setupFunc, seed int64, window time.Duration, traced bool, work string) (result, error) {
	runDir := filepath.Join(work, fmt.Sprintf("%s-seed%d-pid%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(runDir)

	in, err := newInputs(seed, name == "ingest")
	if err != nil {
		return result{}, err
	}
	tr := newTracer(traced)

	// Set up setupReps times, each in a fresh directory; keep the last.
	var dep deployment
	var setupS costs
	for i := 0; i < setupReps; i++ {
		start, cpu0 := time.Now(), cpuTime()
		d, err := setup(in, filepath.Join(runDir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setupS.add(cost{wall: time.Since(start).Seconds(), cpu: (cpuTime() - cpu0).Seconds()})
		if i < setupReps-1 {
			if err := d.close(newRecorder()); err != nil {
				return result{}, fmt.Errorf("teardown: %w", err)
			}
			continue
		}
		dep = d
	}

	rec := newRecorder()
	var cold costs
	detail := map[string]any{"workload": name, "seed": seed, "scale": scale, "window_s": window.Seconds()}
	m := metrics{}
	start := time.Now()
	if err := phases(dep, window, tr, rec, &cold, m); err != nil {
		dep.close(rec)
		return result{}, err
	}
	elapsed := time.Since(start)
	dep.detail(rec, detail)
	if err := dep.close(rec); err != nil {
		return result{}, fmt.Errorf("teardown: %w", err)
	}

	reads := rec.samples(readKinds...)
	if !traced {
		m["setup_s"] = median(setupS.cpu)
		m["read_cpu_ms"] = readCPUms(rec)
		m["cold_cpu_ms"] = median(cold.cpu)
		m["peak_rss_mb"] = peakRSSMB()
	} else {
		dumpPath := filepath.Join(work, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
		if err := tr.dump(dumpPath); err != nil {
			return result{}, err
		}
		rows := tr.selfTimes()
		printSelfTimes(os.Stderr, rows)
		detail["trace_dump"] = dumpPath
		fillUnexercised(m, detail)
	}
	// The wall-clock figures a client sees; on a shared host they move with
	// the CPU time the hypervisor steals (NOTES.md), so they are reported
	// here rather than gated.
	detail["qps"] = float64(len(reads)) / rec.loopSeconds()
	detail["read_p50_ms"] = median(reads)
	detail["read_p90_ms"] = quantile(reads, 0.9)
	detail["read_samples"] = len(reads)
	detail["cold_ms"] = median(cold.wall)
	detail["cold_samples"] = len(cold.wall)
	detail["setup_cpu_s_reps"] = setupS.cpu
	detail["setup_wall_s_reps"] = setupS.wall
	detail["setup_wall_s"] = median(setupS.wall)
	detail["cpu_util"] = rec.loopCPUSeconds() / rec.loopSeconds()
	detail["elapsed_s"] = elapsed.Seconds()
	detail["error_frac"] = float64(rec.failed) / math.Max(1, float64(rec.attempted))
	detail["failures"] = rec.reasons
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", k, v)
		}
	}
	return result{attempted: rec.attempted, failed: rec.failed, metrics: m, detail: detail}, nil
}

// phases runs the measured part of a run: the cold phase and the closed
// loop, or, traced, an untraced and a traced half of the loop followed by
// the layer probes.
func phases(dep deployment, window time.Duration, tr *tracer, rec *recorder, cold *costs, m metrics) error {
	if !tr.on {
		// The cold phase takes the first 40% of the window, its cycles
		// spread over it; the loop takes the rest.
		now := time.Now()
		if err := dep.cold(now.Add(window*2/5), rec, cold); err != nil {
			return err
		}
		settle()
		return dep.loop(now.Add(window), rec, tr)
	}
	settle()
	if err := dep.loop(time.Now().Add(window/2), rec, newTracer(false)); err != nil {
		return err
	}
	withSpans := newRecorder()
	settle()
	if err := dep.loop(time.Now().Add(window/2), withSpans, tr); err != nil {
		return err
	}
	off, on := readCPUms(rec), readCPUms(withSpans)
	m["trace.overhead_ms"] = on - off
	m["trace.overhead_frac"] = (on - off) / off
	m["server.resp_lines"] = withSpans.meanLines()
	rec.merge(withSpans)
	return dep.probe(tr, m)
}

// readKinds are the query kinds of the measured loops: the reads behind
// read_cpu_ms, qps and read_p50_ms.
var readKinds = []string{"select", "join", "pjoin", "within"}

// readCPUms is the process CPU time of rec's loops per read they
// completed (ms).
func readCPUms(rec *recorder) float64 {
	return 1000 * rec.loopCPUSeconds() / float64(len(rec.samples(readKinds...)))
}

// fillUnexercised reports every per-layer metric the workload does not
// exercise as 0 and lists them, so each traced result carries the whole
// vocabulary.
func fillUnexercised(m metrics, detail map[string]any) {
	var missing []string
	for _, name := range perLayerNames {
		if _, ok := m[name]; !ok {
			m[name] = 0
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	detail["not_exercised"] = missing
}
