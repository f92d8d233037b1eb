package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format exposition (version 0.0.4) over the recorder
// registry. Counters and gauges map directly; Rollings render as
// summaries with p50/p90/p99 quantile labels; Pools render as labeled
// per-pool gauges. Metric names are the registry's dotted names with
// dots folded to underscores and a family prefix ("tmedbd.requests"
// under prefix "tmedbd" → tmedbd_requests), so one scrape endpoint can
// serve several recorders without collisions.

// promContentType is the exposition-format content type Prometheus
// scrapers negotiate.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders the report in exposition format. prefix
// namespaces every metric family; a metric already carrying the prefix
// as its first dotted segment is not double-prefixed.
func (rep Report) WritePrometheus(w io.Writer, prefix string) error {
	pw := &promWriter{w: w, prefix: prefix}

	names := make([]string, 0, len(rep.Counters))
	for n := range rep.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pw.family(n, "counter")
		pw.sample(n, "", float64(rep.Counters[n]))
	}

	names = names[:0]
	for n := range rep.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pw.family(n, "gauge")
		pw.sample(n, "", rep.Gauges[n])
	}

	for _, ro := range rep.Rollings {
		pw.family(ro.Name, "summary")
		if ro.Count > 0 {
			pw.sample(ro.Name, `quantile="0.5"`, ro.P50)
			pw.sample(ro.Name, `quantile="0.9"`, ro.P90)
			pw.sample(ro.Name, `quantile="0.99"`, ro.P99)
		}
		pw.sample(ro.Name+"_sum", "", ro.Sum)
		pw.sample(ro.Name+"_count", "", float64(ro.Count))
	}

	for _, p := range rep.Pools {
		label := `pool="` + escapeLabel(p.Name) + `"`
		pw.family("pool.runs", "gauge")
		pw.sample("pool.runs", label, float64(p.Runs))
		pw.family("pool.tasks", "gauge")
		pw.sample("pool.tasks", label, float64(p.Tasks))
	}
	return pw.err
}

// promWriter accumulates the first write error so the render loop stays
// linear; TYPE lines are emitted once per family even when (pool
// metrics) the same family recurs.
type promWriter struct {
	w      io.Writer
	prefix string
	seen   map[string]bool
	err    error
}

func (pw *promWriter) name(metric string) string {
	full := metric
	if pw.prefix != "" && full != pw.prefix && !strings.HasPrefix(full, pw.prefix+".") {
		full = pw.prefix + "." + full
	}
	return sanitizeMetricName(full)
}

func (pw *promWriter) family(metric, typ string) {
	n := pw.name(metric)
	if pw.seen == nil {
		pw.seen = map[string]bool{}
	}
	if pw.seen[n] || pw.err != nil {
		return
	}
	pw.seen[n] = true
	_, err := fmt.Fprintf(pw.w, "# TYPE %s %s\n", n, typ)
	if pw.err == nil {
		pw.err = err
	}
}

func (pw *promWriter) sample(metric, labels string, v float64) {
	if pw.err != nil {
		return
	}
	n := pw.name(metric)
	if labels != "" {
		labels = "{" + labels + "}"
	}
	_, err := fmt.Fprintf(pw.w, "%s%s %s\n", n, labels, formatFloat(v))
	if pw.err == nil {
		pw.err = err
	}
}

// sanitizeMetricName folds a dotted registry name onto the exposition
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeMetricName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// PromHandler returns an http.Handler serving the recorder's live
// snapshot in exposition format under the given family prefix. Safe on
// a nil recorder (serves the empty exposition).
func (r *Recorder) PromHandler(prefix string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", promContentType)
		r.Snapshot(nil).WritePrometheus(w, prefix)
	})
}

// MetricsHandler serves every recorder published via PublishExpvar as
// one exposition page, each under its published name as the family
// prefix — the /metrics twin of /debug/vars, mounted by ServeDebug so
// tmedb -pprof and tmedbd -debug share one scrape surface.
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", promContentType)
		publishMu.Lock()
		names := make([]string, 0, len(published))
		for n := range published {
			names = append(names, n)
		}
		recs := make([]*Recorder, len(names))
		sort.Strings(names)
		for i, n := range names {
			recs[i] = published[n].Load()
		}
		publishMu.Unlock()
		for i, n := range names {
			recs[i].Snapshot(nil).WritePrometheus(w, n)
		}
	})
}
