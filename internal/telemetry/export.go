package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is a point-in-time copy of every metric in the registry,
// JSON-serializable (the `-metrics-out x.json` form).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans      []SpanRecord                 `json:"spans,omitempty"`
}

// Snapshot copies the registry's current state. Nil registries return
// an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	s.Counters = make(map[string]uint64, len(r.counters))
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	s.Gauges = make(map[string]int64, len(r.gauges))
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	r.mu.Unlock()
	s.Spans = r.SpanRecords()
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, `# TYPE` lines,
// histograms in cumulative-`le` form. Span data is not exported here —
// use WriteChromeTrace. Nil registries write nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	s := r.Snapshot()
	var b strings.Builder
	writeFamily(&b, s.Counters, "counter", func(name string, v uint64) {
		fmt.Fprintf(&b, "%s %d\n", name, v)
	})
	writeFamily(&b, s.Gauges, "gauge", func(name string, v int64) {
		fmt.Fprintf(&b, "%s %d\n", name, v)
	})
	histNames := sortedKeys(s.Histograms)
	for _, name := range histNames {
		h := s.Histograms[name]
		base := baseName(name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", base)
		cum := uint64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(&b, "%s %d\n", seriesWithLE(name, formatFloat(bound)), cum)
		}
		cum += h.Counts[len(h.Bounds)]
		fmt.Fprintf(&b, "%s %d\n", seriesWithLE(name, "+Inf"), cum)
		fmt.Fprintf(&b, "%s %s\n", suffixSeries(name, "_sum"), formatFloat(h.Sum))
		fmt.Fprintf(&b, "%s %d\n", suffixSeries(name, "_count"), h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeFamily emits one metric family kind with a `# TYPE` line per
// distinct base name (labelled series of one family share the line).
func writeFamily[V any](b *strings.Builder, m map[string]V, kind string, line func(name string, v V)) {
	names := sortedKeys(m)
	lastBase := ""
	for _, name := range names {
		if base := baseName(name); base != lastBase {
			fmt.Fprintf(b, "# TYPE %s %s\n", base, kind)
			lastBase = base
		}
		line(name, m[name])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// seriesWithLE renders a histogram bucket series: the `_bucket` suffix
// lands on the base name and the `le` label merges into any existing
// label block.
func seriesWithLE(name, le string) string {
	base := baseName(name)
	if i := strings.IndexByte(name, '{'); i >= 0 {
		labels := name[i+1 : len(name)-1]
		return base + `_bucket{` + labels + `,le="` + le + `"}`
	}
	return base + `_bucket{le="` + le + `"}`
}

// suffixSeries appends a suffix to the base name, keeping any label
// block: foo{a="b"} + _sum → foo_sum{a="b"}.
func suffixSeries(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// chromeEvent is one Chrome-trace "complete" event; ts/dur are in
// microseconds from the trace epoch.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace writes every ended span as Chrome trace format
// "X" (complete) events — one JSON event per line inside a JSON array,
// loadable in chrome://tracing and Perfetto. Lane numbers become tids,
// so the main pipeline is row 0 and shard workers are rows 1..; viewers
// nest same-row events by time containment, which reproduces the span
// tree. Nil registries write an empty trace.
func (r *Registry) WriteChromeTrace(w io.Writer) error {
	recs := r.SpanRecords()
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, rec := range recs {
		ev := chromeEvent{
			Name: rec.Name,
			Cat:  "attack",
			Ph:   "X",
			Ts:   float64(rec.Start) / 1e3,
			Dur:  float64(rec.Dur) / 1e3,
			Pid:  1,
			Tid:  rec.Lane,
			Args: rec.Args,
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}

// WriteChromeTraceFile atomically writes the Chrome trace to path
// (temp file + rename, so a crashed run never leaves a torn trace).
func (r *Registry) WriteChromeTraceFile(path string) error {
	return writeFileAtomic(path, r.WriteChromeTrace)
}

// WriteMetricsFile atomically writes a metrics snapshot to path: JSON
// when the path ends in .json, Prometheus text otherwise.
func (r *Registry) WriteMetricsFile(path string) error {
	if strings.HasSuffix(path, ".json") {
		return writeFileAtomic(path, r.WriteJSON)
	}
	return writeFileAtomic(path, r.WritePrometheus)
}

// writeFileAtomic streams fill into a sibling temp file, fsyncs it,
// and renames it over path, propagating every error (including
// Close's). The temp+fsync+rename sequence means a crash mid-write
// never leaves path torn or empty: readers see the old content or the
// new, complete one.
func writeFileAtomic(path string, fill func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".telemetry-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := fill(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Make the rename itself durable. Directory fsync is advisory on
	// some filesystems; failure does not un-write the file.
	if df, err := os.Open(dir); err == nil {
		df.Sync()
		df.Close()
	}
	return nil
}
