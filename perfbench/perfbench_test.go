package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"testing"

	tklus "repro"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// shortRun runs a workload on its short inputs.
func shortRun(t *testing.T, w *workload, traceOn bool) *run {
	t.Helper()
	r, err := benchmark(w, w.small, 7, 1, traceOn, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return r
}

func checkMetrics(t *testing.T, name string, got map[string]metric, want map[string]string) {
	t.Helper()
	for n, unit := range want {
		m, ok := got[n]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", name, n)
		case m.Unit != unit:
			t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", name, n, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", name, n, m.Value)
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", name, n)
		}
	}
}

// TestShortRunsEmitEveryMetric runs every workload on short inputs, plain
// and traced, and checks each run is correct and reports exactly the
// metrics BENCHMARK.json declares, with their units.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		plain := shortRun(t, w, false).result()
		if !plain.Correct || plain.Failed != 0 || plain.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, plain.Correct, plain.Attempted, plain.Failed)
		}
		checkMetrics(t, w.name, plain.Metrics, endToEnd)
		for n, m := range plain.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, n, m.Value)
			}
		}

		traced := shortRun(t, w, true).result()
		if !traced.Correct || traced.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d", w.name, traced.Correct, traced.Failed)
		}
		checkMetrics(t, w.name+" traced", traced.Metrics, perLayer)
		// Each workload runs the layers it exists to measure.
		var layers []string
		switch w.name {
		case "mono-paged":
			layers = []string{"metadb.batch_us", "metadb.page_reads", "thread.popularity_us", "invindex.postings_us"}
		case "sharded-wide":
			layers = []string{"router.search_us", "router.partials_us", "router.merge_us", "router.shards_per_query"}
		case "segments-ingest":
			layers = []string{"segment.ingest_us", "segment.seal_ms", "segment.compact_ms", "segment.seals", "ingest_p50_ms"}
		}
		for _, n := range append(layers, "core.search_us", "geo.cover_us", "runtime.allocs_per_query") {
			if traced.Metrics[n].Value <= 0 {
				t.Errorf("%s traced: %s = %v, want > 0", w.name, n, traced.Metrics[n].Value)
			}
		}
	}
}

// TestOracleCheckTrips feeds the oracle check a deliberately altered
// top-k and expects the run to turn incorrect.
func TestOracleCheckTrips(t *testing.T) {
	r := shortRun(t, &monoPaged, false)
	if res := r.result(); !res.Correct {
		t.Fatalf("unaltered run is incorrect: %+v", r.errs)
	}
	c, i := -1, -1
	for ci := range r.results {
		for qi, res := range r.results[ci] {
			if len(res) >= 2 && res[0].Score != res[1].Score {
				c, i = ci, qi
			}
		}
	}
	if c < 0 {
		t.Fatal("no query with two distinct scores to alter")
	}
	altered := slices.Clone(r.results[c][i])
	altered[0], altered[1] = altered[1], altered[0]
	r.results[c][i] = altered
	if err := r.verify(); err != nil {
		t.Fatal(err)
	}
	res := r.result()
	if res.Correct || r.mismatches != 1 || res.Failed != r.execs[c][i] {
		t.Fatalf("altered top-k: correct=%v mismatches=%d failed=%d, want false/1/%d",
			res.Correct, r.mismatches, res.Failed, r.execs[c][i])
	}
}

// TestCheckTripsOnDisagreeingExecution: a second execution whose top-k
// differs from the first one fails.
func TestCheckTripsOnDisagreeingExecution(t *testing.T) {
	in := &inputs{queries: [][]tklus.Query{{{}}}}
	r := newRun(&monoPaged, monoPaged.small, in, 1, t.TempDir(), false)
	first := []tklus.UserResult{{UID: 1, Score: 0.5}}
	if !r.check(0, 0, first, &tklus.QueryStats{}, nil) {
		t.Fatal("first execution failed")
	}
	if r.check(0, 0, []tklus.UserResult{{UID: 2, Score: 0.5}}, &tklus.QueryStats{}, nil) {
		t.Fatal("disagreeing execution passed")
	}
	degraded := &tklus.QueryStats{DegradedShards: []tklus.ShardFailure{{Shard: "shard-00", Reason: "down"}}}
	if r.check(0, 0, first, degraded, nil) {
		t.Fatal("degraded execution passed")
	}
	if got := r.ops[opQuery]; got.attempted != 3 || got.failed != 2 {
		t.Fatalf("accounting %+v, want 3 attempted, 2 failed", *got)
	}
}

// TestCountsRepeat: work counts are properties of the inputs, so two runs
// with the same seed report the same values.
func TestCountsRepeat(t *testing.T) {
	exact := []string{"thread.built", "thread.pruned", "metadb.page_reads", "invindex.postings_fetched",
		"core.candidates", "geo.cells", "segment.seals", "segment.count"}
	for _, w := range workloads {
		a := shortRun(t, w, true).result().Metrics
		b := shortRun(t, w, true).result().Metrics
		for _, n := range exact {
			if a[n] != b[n] {
				t.Errorf("%s: %s = %v then %v", w.name, n, a[n].Value, b[n].Value)
			}
		}
		n := "runtime.allocs_per_query"
		if d := math.Abs(a[n].Value/b[n].Value - 1); d > 0.02 {
			t.Errorf("%s: %s = %v then %v (%.1f%% apart)", w.name, n, a[n].Value, b[n].Value, 100*d)
		}
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v", got)
	}
	if got := median(xs); got != 500.5 {
		t.Errorf("median of 1..1000 = %v", got)
	}
	if p, label := highestPercentile(1000); p != 0.99 || label != "p99" {
		t.Errorf("highest percentile of 1000 samples = %v %s", p, label)
	}
	if p, _ := highestPercentile(999); p != 0.95 {
		t.Errorf("highest percentile of 999 samples = %v", p)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "b", parent: 0, start: 30, end: 60},
		{name: "c", parent: 1, start: 20, end: 25},
	}}
	got := tr.selfTimes()
	want := []int64{50, 25, 30, 5}
	for i := range want {
		if int64(got[i]) != want[i] {
			t.Errorf("span %s self = %v, want %d", tr.spans[i].name, got[i], want[i])
		}
	}
}
