package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"text/tabwriter"
)

// record is the single document a driver invocation writes.
type record struct {
	Commit    string           `json:"commit"`
	GoVersion string           `json:"go_version"`
	NumCPU    int              `json:"nproc"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Runs      int              `json:"runs"`
	Clients   int              `json:"clients"`
	Workloads []workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Name      string         `json:"name"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	EndToEnd  []metricRecord `json:"end_to_end"`
	PerLayer  []metricRecord `json:"per_layer,omitempty"`
}

// metricRecord reduces one metric's values over the runs.
type metricRecord struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// drive runs every named workload `runs` times untraced (and as often
// traced, unless trace is off), each run in its own child process —
// obs.Default, the wire flow sink and the query-id sequence are
// process-global, and peak_rss_mb must be one run's — and merges the
// children's results into one record.
func drive(names []string, seed uint64, seconds float64, runs int, trace bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rec := record{Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		Seed: seed, Seconds: seconds, Runs: runs, Clients: clients}
	failed := 0
	for _, name := range names {
		wr := workloadRecord{Name: name}
		modes := []struct {
			traced bool
			defs   []metricDef
			into   *[]metricRecord
		}{{false, endToEnd, &wr.EndToEnd}, {true, perLayer, &wr.PerLayer}}
		if !trace {
			modes = modes[:1]
		}
		for _, mode := range modes {
			values := map[string][]float64{}
			for i := 0; i < runs; i++ {
				o, err := child(self, name, seed+uint64(i), seconds, mode.traced)
				if err != nil {
					return err
				}
				wr.Attempted += o.Attempted
				wr.Failed += o.Failed
				for k, v := range o.Metrics {
					values[k] = append(values[k], v.Value)
				}
			}
			for _, d := range mode.defs {
				q1, med, q3 := quartiles(values[d.Name])
				*mode.into = append(*mode.into, metricRecord{d.Name, d.Unit, d.Better, med, q1, q3, len(values[d.Name])})
			}
		}
		failed += wr.Failed
		rec.Workloads = append(rec.Workloads, wr)
	}

	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("record written to %s\n", out)
	if failed > 0 {
		return fmt.Errorf("%d queries failed", failed)
	}
	return nil
}

// child runs one workload once in a fresh process, passing its report
// through and returning the JSON object of its last line.
func child(self, name string, seed uint64, seconds float64, traced bool) (*runOutput, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.FormatBool(traced))
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, os.Stdout)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var o runOutput
	if err := json.Unmarshal(lines[len(lines)-1], &o); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", name, seed, err)
	}
	return &o, nil
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// verdict compares one end-to-end metric across two records. change is
// how much worse the new median is, as a share of the old one (negative
// when it is better); spread is the wider of the two sides' quartile
// ranges, as a share of their medians. A difference counts only beyond
// both the metric's bound and the spread; a spread wider than the bound
// leaves the metric unresolved, not unchanged.
func verdict(d metricDef, old, new metricRecord) (ratio float64, v string) {
	ratio = new.Median / old.Median
	change := ratio - 1
	if d.Better == "higher" {
		change = -change
	}
	spread := math.Max((old.Q3-old.Q1)/math.Abs(old.Median), (new.Q3-new.Q1)/math.Abs(new.Median))
	switch {
	case math.Abs(change) > math.Max(d.Bound, spread) && change > 0:
		return ratio, "worse"
	case math.Abs(change) > math.Max(d.Bound, spread):
		return ratio, "better"
	case spread > d.Bound:
		return ratio, "unresolved"
	default:
		return ratio, "within-bound"
	}
}

// diffRecords prints one row per workload and end-to-end metric that
// both records hold.
func diffRecords(w io.Writer, oldPath, newPath string) error {
	old, err := readRecord(oldPath)
	if err != nil {
		return err
	}
	new, err := readRecord(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\told median\tnew median\tnew/old\tbound\tverdict\n")
	worse := 0
	for _, ow := range old.Workloads {
		for _, nw := range new.Workloads {
			if nw.Name != ow.Name {
				continue
			}
			for _, d := range endToEnd {
				om, ok1 := findMetric(ow.EndToEnd, d.Name)
				nm, ok2 := findMetric(nw.EndToEnd, d.Name)
				if !ok1 || !ok2 {
					continue
				}
				ratio, v := verdict(d, om, nm)
				if v == "worse" {
					worse++
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%.4f\t%.2f\t%s\n", ow.Name, d.Name, d.Unit, om.Median, nm.Median, ratio, d.Bound, v)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d worse (old: %s, %d runs; new: %s, %d runs)\n", worse, old.Commit, old.Runs, new.Commit, new.Runs)
	return nil
}

func findMetric(ms []metricRecord, name string) (metricRecord, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metricRecord{}, false
}
