// Command bench is the repository's benchmark: six named workloads driven
// through the platform's public entry points, end-to-end metrics from
// plain runs, and per-layer metrics from a traced run whose wrappers sit
// on the layer seams the platform exposes. See README.md.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bench --workload ctrl-churn --seed 3 --seconds 18 --trace 0
//	bench [-seed 1] [-repeats 5] [-out result.json] [-trace-dir traces/]
//	bench -compare A.json B.json
//
// With --workload it measures that workload for --seconds and prints, as
// its last line, one JSON object with the end-to-end metrics (--trace 0)
// or the per-layer metrics (--trace 1). Without it, it measures every
// workload -repeats times, interleaved, then once more traced, and prints
// the metric tables. Exit status: 0 on success, 1 when a run fails, a
// digest mismatches or a comparison finds a worse metric, 2 on usage
// errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	repeats  int
	out      string
	traceDir string
	spec     string
	compare  bool
	args     []string
}

func parseFlags(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "measure one workload (empty = every workload, interleaved)")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed")
	fs.IntVar(&c.seconds, "seconds", 18, "seconds each measurement block runs for")
	fs.IntVar(&c.trace, "trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics")
	fs.IntVar(&c.repeats, "repeats", 5, "without -workload: end-to-end blocks per workload")
	fs.StringVar(&c.out, "out", "", "write the result JSON here")
	fs.StringVar(&c.traceDir, "trace-dir", "", "write each traced run as <dir>/<workload>.trace.json (Chrome trace_event)")
	fs.StringVar(&c.spec, "spec", "BENCHMARK.json", "benchmark definition holding the regression bounds (-compare)")
	fs.BoolVar(&c.compare, "compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	c.args = fs.Args()
	switch {
	case c.compare && len(c.args) != 2:
		return c, fmt.Errorf("-compare takes two result files")
	case !c.compare && len(c.args) > 0:
		return c, fmt.Errorf("unexpected arguments %q", c.args)
	case c.workload != "" && workloadByName(c.workload) == nil:
		return c, fmt.Errorf("unknown workload %q (have %s)", c.workload, strings.Join(workloadNames(), ", "))
	case c.seconds < 1 || c.repeats < 1:
		return c, fmt.Errorf("-seconds and -repeats must be >= 1")
	case c.trace != 0 && c.trace != 1:
		return c, fmt.Errorf("-trace must be 0 or 1")
	}
	return c, nil
}

func run(args []string) int {
	c, err := parseFlags(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	if c.compare {
		return compareFiles(c.spec, c.args[0], c.args[1])
	}
	pinned, err := pinnedDigests()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp("", "lifl-bench-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	if c.workload != "" {
		return runOne(c, tmp, pinned)
	}
	return runSuite(c, tmp, pinned)
}

// warmUp runs w once at 1/10 length, untimed, so lazy runtime and page
// set-up is paid before measuring.
func warmUp(w *workload, seed int64, tmp string) error {
	if _, err := execute(w, seed, 10, plain, tmp); err != nil {
		return fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	return nil
}

// runOne measures one workload in one block and prints one JSON line.
func runOne(c config, tmp string, pinned map[string]string) int {
	w := workloadByName(c.workload)
	res := newResult(c, 1)
	wr := workloadResult{Name: w.name}
	layers := c.trace == 1
	if err := warmUp(w, c.seed, tmp); err != nil {
		wr.Attempted, wr.Failed = 1, 1
		wr.Errors = []string{err.Error()}
	} else {
		b := measureBlock(w, c.seed, c.seconds, layers, tmp, pinned)
		res.Order = append(res.Order, w.name)
		wr.add(b, layers)
		wr.Attempted++ // the warm-up
		if c.traceDir != "" {
			if err := b.writeTrace(c.traceDir); err != nil {
				wr.fail("writing trace: %v", err)
			}
		}
	}
	wr.summarize()
	res.Workloads = []workloadResult{wr}

	defs := endToEnd
	values := map[string]float64{}
	if layers {
		defs, values = perLayer, wr.PerLayer
	} else {
		for name, s := range wr.EndToEnd {
			values[name] = s.Median
		}
	}
	fmt.Printf("workload %s  seed %d  runs %d  failed %d  round samples %d  digest %s\n",
		w.name, c.seed, wr.Attempted, wr.Failed, wr.RoundSamples, wr.Digest)
	for _, e := range wr.Errors {
		fmt.Printf("error: %s\n", e)
	}
	if layers {
		printLayerRows(wr.LayerUS)
	}
	line := resultLine{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			line.Correct = false
			continue
		}
		fmt.Printf("%-32s %14.6g %s\n", d.name, v, d.unit)
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if err := res.save(c.out); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

// resultLine is the JSON object runOne prints as its last line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runSuite measures every workload: one untimed warm-up pass, -repeats
// end-to-end blocks interleaved across workloads (forward, then reverse
// order, alternating), then one per-layer block each.
func runSuite(c config, tmp string, pinned map[string]string) int {
	res := newResult(c, c.repeats)
	byName := map[string]*workloadResult{}
	for _, w := range workloads {
		res.Workloads = append(res.Workloads, workloadResult{Name: w.name})
	}
	for i := range res.Workloads {
		byName[res.Workloads[i].Name] = &res.Workloads[i]
	}
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "bench: warm-up %s\n", w.name)
		if err := warmUp(w, c.seed, tmp); err != nil {
			byName[w.name].fail("%v", err)
		}
	}
	for rep := 0; rep < c.repeats; rep++ {
		order := slices.Clone(workloads)
		if rep%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			fmt.Fprintf(os.Stderr, "bench: %s block %d/%d\n", w.name, rep+1, c.repeats)
			res.Order = append(res.Order, w.name)
			byName[w.name].add(measureBlock(w, c.seed, c.seconds, false, tmp, pinned), false)
		}
	}
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "bench: %s traced block\n", w.name)
		res.Order = append(res.Order, w.name+"/traced")
		b := measureBlock(w, c.seed, c.seconds, true, tmp, pinned)
		byName[w.name].add(b, true)
		if c.traceDir != "" {
			if err := b.writeTrace(c.traceDir); err != nil {
				byName[w.name].fail("writing trace: %v", err)
			}
		}
	}
	failed := 0
	for i := range res.Workloads {
		wr := &res.Workloads[i]
		wr.summarize()
		failed += wr.Failed
		printWorkload(wr)
	}
	if err := res.save(c.out); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func newResult(c config, repeats int) *result {
	return &result{
		Schema:     resultSchema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       c.seed,
		Seconds:    c.seconds,
		Repeats:    repeats,
	}
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}
