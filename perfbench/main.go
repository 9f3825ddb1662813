// Command perfbench is the repository's end-to-end benchmark. It drives the
// program only through its public functions and its HTTP /predict endpoint,
// times those calls from outside, checks every output, and prints one JSON
// result object as the last line of standard output.
//
// Usage (from the repository root; run.sh builds and runs this package):
//
//	bash perfbench/run.sh --workload train --seed 1 --seconds 40 --trace 0
//
// Workloads:
//
//	train  One op is one study round on Flights at scale 16 on the default
//	       storage engine — nine classifier specs × {JoinAll, NoJoin}, each
//	       through ViewSplits → Train → Accuracy → model.New → model.Save —
//	       then DecisionTree(gini) + NaiveBayes(BFS) on JoinAll of Movies at
//	       scale 512 on the segmented engine, with a spill directory and a
//	       segment-cache budget of about 1/6 of the heap file.
//	serve  An ANN(MLP) artifact served over loopback HTTP with the default
//	       server and coalescer configuration, under a fixed-rate open loop
//	       of point /predict requests.
//
// --trace 0 reports the end-to-end metrics with no timing wrappers around
// the layers; --trace 1 is a separate pass that times each layer call and
// reports the per-layer metrics, plus the tracing overhead measured against
// untraced ops interleaved in the same process. Set-up and op costs are
// process CPU time, which leaves out what the hypervisor steals; the wall
// times are reported, ungated, with the traced pass. perfbench/README.md lists
// every metric with the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a smoke-test size.
	tiny bool
	// workDir receives artifacts and spill files; run removes it.
	workDir string
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: train or serve")
	seed := fs.Uint64("seed", 1, "input generation seed")
	seconds := fs.Float64("seconds", 10, "measured duration in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics from a traced pass")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if _, ok := workloads[*workload]; !ok {
		return config{}, fmt.Errorf("unknown --workload %q (want train or serve)", *workload)
	}
	if *seconds <= 0 {
		return config{}, errors.New("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return config{}, errors.New("--trace must be 0 or 1")
	}
	return config{
		workload: *workload, seed: *seed, seconds: *seconds,
		trace:   *trace == 1,
		workDir: filepath.Join(".bench_build", "perfbench-work"),
	}, nil
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*report, error){
	"train": runTrain,
	"serve": runServe,
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout, cfg.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload inside a fresh work directory.
func run(cfg config) (*report, error) {
	dir, err := filepath.Abs(filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("work dir: %w", err)
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir
	steal0, total0, err := hostCPU()
	if err != nil {
		return nil, err
	}
	rep, err := workloads[cfg.workload](cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	steal1, total1, err := hostCPU()
	if err != nil {
		return nil, err
	}
	if total1 > total0 {
		rep.set("host.steal_share", float64(steal1-steal0)/float64(total1-total0))
	}
	rep.notef("host: %.1f%% of the machine's CPU time was stolen by the hypervisor during the run", 100*rep.metrics["host.steal_share"])
	return rep, nil
}

// report is one run's outcome: op accounting, the correctness verdict, and
// every metric measured (end-to-end or per-layer, depending on the pass).
type report struct {
	attempted int
	failed    int
	// mismatches counts ops whose outputs failed a check; any makes the
	// run incorrect. Failed-but-correct ops (a refused request) only count
	// as failed.
	mismatches int
	metrics    map[string]float64
	notes      []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the human-readable report and then, as the last line, the
// JSON result holding exactly the metrics of the pass's catalog.
func (r *report) write(w io.Writer, traced bool) error {
	catalog := endToEnd
	if traced {
		catalog = perLayer
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	res := jsonResult{
		Correct:   r.mismatches == 0 && r.attempted > r.failed,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(catalog)),
	}
	for _, m := range catalog {
		v, ok := r.metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
		moves := ""
		if m.moves != "" {
			moves = "  -> " + m.moves
		}
		fmt.Fprintf(w, "%-34s %14.6g %-6s%s\n", m.name, v, m.unit, moves)
	}
	fmt.Fprintf(w, "ops: %d attempted, %d failed, %d with mismatched outputs\n", r.attempted, r.failed, r.mismatches)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// duration is the given share of the run's measured time.
func (cfg config) duration(share float64) time.Duration {
	return time.Duration(cfg.seconds * share * float64(time.Second))
}
