// Command perfbench is the repository's benchmark. One run builds one
// workload's arrangement from a seeded corpus through the public API,
// drives it with one closed-loop client, checks every answer against an
// oracle, and prints the metrics by name with their units. The last line
// of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run adds a traced round that times each layer's public functions from
// this package and reports the per-layer metrics instead.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload mono-paged --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// workDir holds the segment files of a run (removed when it ends) and the
// span dumps of traced runs, under the checkout's build directory.
const workDir = ".bench_build/work"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: mono-paged, sharded-wide or segments-ingest")
	seed := fl.Int64("seed", 1, "seed the corpus and query list derive from")
	seconds := fl.Int("seconds", 12, "how long the timed phases of one run measure, in total")
	trace := fl.Int("trace", 0, "1 adds a traced round and reports the per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q, seconds %d, trace %d\n", *name, *seconds, *trace)
		return 2
	}
	r, err := benchmark(w, w.size, *seed, *seconds, *trace == 1, workDir, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res := r.result()
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// benchmark generates the inputs, executes the run and writes the
// human-readable report (everything but the final JSON line) to out.
func benchmark(w *workload, sz sizing, seed int64, seconds int, traceOn bool, work string, out io.Writer) (*run, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	in, err := w.inputs(seed, sz)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	r := newRun(w, sz, in, seconds, dir, traceOn)
	if err := r.execute(); err != nil {
		return nil, err
	}
	if traceOn {
		path := filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
		if err := r.tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(r.tr.spans), path)
	}
	r.report(out, seconds)
	return r, nil
}

// endToEnd is the set of metrics a --trace 0 run reports: each is the
// median over the run's rounds of that round's figure.
func (r *run) endToEnd() map[string]metric {
	over := func(f func(roundFigures) float64) float64 {
		xs := make([]float64, len(r.rounds))
		for i, rf := range r.rounds {
			xs[i] = f(rf)
		}
		return finite(median(xs))
	}
	return map[string]metric{
		"query_p50_ms": {over(func(f roundFigures) float64 { return f.p50 }), "ms"},
		"query_p99_ms": {over(func(f roundFigures) float64 { return f.p99 }), "ms"},
		"query_qps":    {over(func(f roundFigures) float64 { return f.qps }), "1/s"},
		"query_cpu_ms": {over(func(f roundFigures) float64 { return f.cpuMs }), "ms"},
		"setup_s":      {median(r.setup), "s"},
		"heap_live_mb": {median(r.heap), "MB"},
	}
}

// perLayer is the set of metrics a --trace 1 run reports. Times come from
// the traced round, as the median over traced queries of the per-query
// sum of a layer's spans; counts come from the untimed bookkeeping of the
// untraced phases, as means per query; runtime figures from the untraced
// phases. A layer the workload does not run reports 0.
func (r *run) perLayer() map[string]metric {
	durs, allocs := r.tr.perRequest(r.tracedReqs)
	nq := float64(len(r.queryLat))
	perQuery := func(x int64) float64 { return float64(x) / nq }
	search := "core.search"
	if len(r.shards) > 0 {
		// A sharded query's engine-level search is each shard's
		// SearchPartials.
		search = "router.partials"
	}
	var seals, compactions, segments, mapped []float64
	for _, f := range r.store {
		seals = append(seals, float64(f.seals))
		compactions = append(compactions, float64(f.compactions))
		segments = append(segments, float64(f.segments))
		mapped = append(mapped, f.mappedMB)
	}
	var postsPerS float64
	if r.ingestTime > 0 {
		postsPerS = float64(r.ingestPosts) / r.ingestTime.Seconds()
	}
	m := map[string]metric{
		"geo.cover_us":               {medianOf(durs, "geo.cover"), "us"},
		"geo.cells":                  {perQuery(r.counts.cells), "count"},
		"geo.allocs":                 {medianOf(allocs, "geo.cover"), "count"},
		"invindex.postings_us":       {medianOf(durs, "invindex.postings"), "us"},
		"invindex.postings_fetched":  {perQuery(r.counts.postings), "count"},
		"invindex.blocks_skipped":    {perQuery(r.counts.blocksSkipped), "count"},
		"invindex.allocs":            {medianOf(allocs, "invindex.postings"), "count"},
		"dfs.bytes_read":             {perQuery(r.counts.dfsBytes), "bytes"},
		"metadb.batch_us":            {medianOf(durs, "metadb.batch"), "us"},
		"metadb.page_reads":          {perQuery(r.counts.pageReads), "count"},
		"metadb.index_reads":         {perQuery(r.counts.indexReads), "count"},
		"metadb.allocs":              {medianOf(allocs, "metadb.batch"), "count"},
		"thread.popularity_us":       {medianOf(durs, "thread.popularity"), "us"},
		"thread.built":               {perQuery(r.counts.built), "count"},
		"thread.pruned":              {perQuery(r.counts.pruned), "count"},
		"thread.tweets_pulled":       {perQuery(r.counts.pulled), "count"},
		"thread.allocs":              {medianOf(allocs, "thread.popularity"), "count"},
		"core.search_us":             {medianOf(durs, search), "us"},
		"core.candidates":            {perQuery(r.counts.candidates), "count"},
		"core.allocs":                {medianOf(allocs, search), "count"},
		"router.search_us":           {medianOf(durs, "router.search"), "us"},
		"router.partials_us":         {medianOf(durs, "router.partials"), "us"},
		"router.merge_us":            {medianOf(durs, "router.merge"), "us"},
		"router.shards_per_query":    {mean(r.shards), "count"},
		"router.records_per_query":   {mean(r.records), "count"},
		"router.allocs":              {medianOf(allocs, "router.search"), "count"},
		"segment.partitions_pruned":  {perQuery(r.counts.partitionsPruned), "count"},
		"runtime.allocs_per_query":   {float64(r.rt.allocObjects) / nq, "count"},
		"runtime.alloc_kb_per_query": {float64(r.rt.allocBytes) / 1024 / nq, "KiB"},
		"runtime.gc_cpu_share":       {r.rt.gcCPU / math.Max(r.rt.totalCPU, 1e-9), "ratio"},
		"runtime.gc_cycles":          {float64(r.rt.gcCycles), "count"},
		"trace.overhead_pct":         {100 * (median(r.tracedSearch)/median(r.queryLat) - 1), "%"},
		"segment.ingest_us":          {median(r.tr.durations("segment.ingest")), "us"},
		"segment.seal_ms":            {median(r.tr.durations("segment.seal")) / 1000, "ms"},
		"segment.compact_ms":         {median(r.tr.durations("segment.compact")) / 1000, "ms"},
		"segment.seals":              {median(seals), "count"},
		"segment.compactions":        {median(compactions), "count"},
		"segment.count":              {median(segments), "count"},
		"segment.mapped_mb":          {median(mapped), "MB"},
		"ingest_p50_ms":              {finite(median(r.ingestLat)), "ms"},
		"ingest_p99_ms":              {finite(percentile(r.ingestLat, 0.99)), "ms"},
		"ingest_posts_per_s":         {postsPerS, "1/s"},
	}
	for _, st := range telemetry.QueryStages {
		m["core.stage."+st+"_us"] = metric{medianOf(durs, "core.stage."+st), "us"}
	}
	return m
}

// finite keeps a latency that a failed operation pushed to +Inf encodable.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}

func (r *run) result() result {
	attempted, failed := r.totals()
	m := r.endToEnd()
	if r.traceOn {
		m = r.perLayer()
	}
	return result{Correct: failed == 0 && r.mismatches == 0, Attempted: attempted, Failed: failed, Metrics: m}
}

// report writes the run's inputs, operation accounting, host probe and
// every metric, one per line, ahead of the JSON line.
func (r *run) report(out io.Writer, seconds int) {
	in := r.in
	p := func(format string, args ...any) { fmt.Fprintf(out, format+"\n", args...) }
	p("perfbench workload=%s seed=%d seconds=%d trace=%v", r.w.name, in.seed, seconds, r.traceOn)
	p("inputs: corpus=%d posts (base %d, stream %d in batches of %d), %d checkpoints x %d distinct queries (windowed %d in all) x %d passes x %d rounds, radii_km=%v, k=%d",
		len(in.corpus), len(in.base), len(in.stream), r.sz.Batch, len(in.queries), len(in.queries[0]), in.windowed,
		r.passes, r.sz.Rounds, in.radii, topK)
	for _, t := range opTypes {
		o := r.ops[t]
		share := 0.0
		if o.attempted > 0 {
			share = float64(o.failed) / float64(o.attempted)
		}
		p("ops %-7s attempted=%d failed=%d failed_share=%.4f", t, o.attempted, o.failed, share)
	}
	p("oracle mismatches: %d", r.mismatches)
	for _, e := range r.errs {
		p("error: %s", e)
	}
	drift := 100 * (r.probeAfter.Seconds()/r.probeBefore.Seconds() - 1)
	p("host_probe_ms before=%.2f after=%.2f drift=%+.1f%% (diagnostic, not gated)", ms(r.probeBefore), ms(r.probeAfter), drift)
	pr, label := highestPercentile(len(r.queryLat))
	p("query samples over all rounds=%d median=%.4f ms %s=%.4f ms (highest percentile with >=%d samples beyond)",
		len(r.queryLat), median(r.queryLat), label, finite(percentile(r.queryLat, pr)), tailSamples)
	if len(r.ingestLat) > 0 {
		pr, label := highestPercentile(len(r.ingestLat))
		p("ingest batches=%d median=%.4f ms %s=%.4f ms; seal calls median=%.3f ms; compact calls median=%.3f ms",
			len(r.ingestLat), median(r.ingestLat), label, finite(percentile(r.ingestLat, pr)), median(r.sealLat), median(r.compactLat))
	}
	p("setup_s samples=%v", r.setup)
	p("end-to-end metrics are the median over the %d rounds of each round's figure", len(r.rounds))
	for i, f := range r.rounds {
		p("round %d: queries=%d qps=%.1f cpu=%.4f ms/query p50=%.4f ms p99=%.4f ms writes=%.1f ms major_faults=%d",
			i, f.queries, f.qps, f.cpuMs, f.p50, finite(f.p99), f.writeMs, f.faults)
	}
	if r.traceOn {
		multi := 0
		for _, s := range r.shards {
			if s >= 2 {
				multi++
			}
		}
		if len(r.shards) > 0 {
			p("router: %d of %d traced queries touched more than one shard (%.1f%%)", multi, len(r.shards), 100*float64(multi)/float64(len(r.shards)))
		}
		p("tracing overhead: traced search median %.4f ms vs untraced %.4f ms", median(r.tracedSearch), median(r.queryLat))
		p("note: per-layer times come from isolated calls made outside the search and need not sum to core.search_us")
	}
	m := r.endToEnd()
	if r.traceOn {
		m = r.perLayer()
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p("metric %-30s %s %s", n, strings.TrimSpace(fmt.Sprintf("%.6g", m[n].Value)), m[n].Unit)
	}
}
