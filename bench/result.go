package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// resultSchema versions the result file -out writes and -compare reads.
const resultSchema = "lifl-bench/1"

// result is one invocation's measurements, with what is needed to judge
// them: the toolchain, the parallelism, the seed and the run order.
type result struct {
	Schema     string           `json:"schema"`
	GoVersion  string           `json:"go"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"nproc"`
	Seed       int64            `json:"seed"`
	Seconds    int              `json:"seconds"`
	Repeats    int              `json:"repeats"`
	Order      []string         `json:"order"`
	Workloads  []workloadResult `json:"workloads"`
}

// workloadResult is one workload's measurements across its blocks.
type workloadResult struct {
	Name       string  `json:"name"`
	Digest     string  `json:"digest"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	FailedFrac float64 `json:"failed_frac"`
	// RoundSamples is the fewest rounds any block pooled for its round
	// percentiles.
	RoundSamples int                 `json:"round_samples"`
	EndToEnd     map[string]summary  `json:"end_to_end,omitempty"`
	PerLayer     map[string]float64  `json:"per_layer,omitempty"`
	LayerUS      map[string]layerRow `json:"layer_us,omitempty"`
	Errors       []string            `json:"errors,omitempty"`

	blocks []map[string]float64
}

// summary is one end-to-end metric over an invocation's blocks.
type summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func (wr *workloadResult) fail(format string, args ...any) {
	wr.Failed++
	wr.Errors = append(wr.Errors, fmt.Sprintf(format, args...))
}

// add folds one block in: its run counts and errors, its digest (which
// must not change between blocks), and its metrics.
func (wr *workloadResult) add(b *block, layers bool) {
	wr.Attempted += b.attempted
	wr.Failed += b.failed
	wr.Errors = append(wr.Errors, b.errs...)
	if d := b.digest(); d != "" {
		if wr.Digest == "" {
			wr.Digest = d
		} else if d != wr.Digest {
			wr.fail("digest %s in a later block, %s before", d, wr.Digest)
		}
	}
	if b.failed > 0 {
		return
	}
	if n := b.roundSamples(); wr.RoundSamples == 0 || n < wr.RoundSamples {
		wr.RoundSamples = n
	}
	if layers {
		vals, rows, err := b.perLayerValues()
		if err != nil {
			wr.fail("%v", err)
			return
		}
		wr.PerLayer, wr.LayerUS = vals, rows
		return
	}
	vals, err := b.endToEndValues()
	if err != nil {
		wr.fail("%v", err)
		return
	}
	wr.blocks = append(wr.blocks, vals)
}

// summarize turns the per-block values into medians and quartiles.
func (wr *workloadResult) summarize() {
	if wr.Attempted > 0 {
		wr.FailedFrac = float64(wr.Failed) / float64(wr.Attempted)
	}
	if len(wr.blocks) == 0 {
		return
	}
	wr.EndToEnd = map[string]summary{}
	for _, d := range endToEnd {
		s := summary{Unit: d.unit}
		for _, b := range wr.blocks {
			s.Values = append(s.Values, b[d.name])
		}
		s.Q1, s.Median, s.Q3 = quartiles(s.Values)
		wr.EndToEnd[d.name] = s
	}
}

func (r *result) save(path string) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing result: %w", err)
	}
	return nil
}

func loadResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultSchema)
	}
	return &r, nil
}

// printWorkload prints one workload's tables.
func printWorkload(wr *workloadResult) {
	fmt.Printf("\n== %s  digest %s  runs %d  failed %d (failed_frac %.4g)  round samples/block %d\n",
		wr.Name, wr.Digest, wr.Attempted, wr.Failed, wr.FailedFrac, wr.RoundSamples)
	for _, e := range wr.Errors {
		fmt.Printf("error: %s\n", e)
	}
	if len(wr.EndToEnd) > 0 {
		fmt.Printf("%-24s %14s %14s %14s  %s\n", "end-to-end", "median", "q1", "q3", "unit")
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.name]
			fmt.Printf("%-24s %14.6g %14.6g %14.6g  %s\n", d.name, s.Median, s.Q1, s.Q3, d.unit)
		}
	}
	if len(wr.PerLayer) > 0 {
		fmt.Printf("%-32s %14s  %s\n", "per-layer", "value", "unit")
		for _, d := range perLayer {
			fmt.Printf("%-32s %14.6g  %s\n", d.name, wr.PerLayer[d.name], d.unit)
		}
		printLayerRows(wr.LayerUS)
	}
}

// printLayerRows prints each traced layer's µs per round and share.
func printLayerRows(rows map[string]layerRow) {
	if len(rows) == 0 {
		return
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-24s %12s %12s %8s\n", "layer span", "us/round", "self us", "share %")
	for _, n := range names {
		r := rows[n]
		fmt.Printf("%-24s %12.3f %12.3f %8.2f\n", n, r.TotalUS, r.SelfUS, r.Pct)
	}
}
