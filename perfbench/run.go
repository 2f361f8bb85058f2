package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	tklus "repro"
)

// Operation types accounted separately.
const (
	opQuery   = "query"
	opIngest  = "ingest"
	opSeal    = "seal"
	opCompact = "compact"
)

var opTypes = []string{opQuery, opIngest, opSeal, opCompact}

type opCount struct{ attempted, failed int }

// queryCounts sums the per-query work counters of the timed phase.
type queryCounts struct {
	cells, postings, blocksSkipped, candidates int64
	built, pruned, pulled, partitionsPruned    int64
	pageReads, indexReads, dfsBytes            int64
}

func (c *queryCounts) add(st *tklus.QueryStats, pageReads, indexReads, dfsBytes int64) {
	c.pageReads += pageReads
	c.indexReads += indexReads
	c.dfsBytes += dfsBytes
	if st == nil {
		return
	}
	c.cells += int64(st.Cells)
	c.postings += st.PostingsFetched
	c.blocksSkipped += st.BlocksSkipped
	c.candidates += int64(st.Candidates)
	c.built += st.ThreadsBuilt
	c.pruned += st.ThreadsPruned
	c.pulled += st.TweetsPulled
	c.partitionsPruned += st.PartitionsPruned
}

// roundFigures are the end-to-end figures of one untraced timed phase;
// the run reports the median of each over its rounds.
type roundFigures struct {
	queries    int
	qps, cpuMs float64
	p50, p99   float64 // ms
	writeMs    float64 // ingest, seal and compact calls
	faults     int64   // major page faults
}

// storeFigures are the segment store's state after one timed phase.
type storeFigures struct {
	seals, compactions int64
	segments           int
	mappedMB           float64
}

// run is one benchmark run of one workload: untimed set-up rounds, timed
// phases, optionally a traced round, and the check against the oracle.
type run struct {
	w       *workload
	sz      sizing
	in      *inputs
	passes  int
	work    string
	traceOn bool

	ops map[string]*opCount
	// results[c][i] is the first top-k checkpoint c's query i returned;
	// execs[c][i] counts the executions that returned exactly it.
	results    [][][]tklus.UserResult
	execs      [][]int
	mismatches int // (checkpoint, query) pairs the oracle disagreed with
	errs       []string

	// Untraced timed phases.
	queryLat    []float64 // ms; +Inf marks a failed query
	ingestLat   []float64 // ms; +Inf marks a failed batch
	sealLat     []float64 // ms, explicit SealNow calls
	compactLat  []float64 // ms
	ingestPosts int
	ingestTime  time.Duration
	writeTime   time.Duration // ingest, seal and compact calls
	setup       []float64     // s
	heap        []float64     // MB
	rounds      []roundFigures
	rt          runtimeCounters
	counts      queryCounts
	store       []storeFigures

	// Traced round.
	tr           *tracer
	tracedReqs   []int     // request ids of traced queries
	tracedSearch []float64 // ms, the real search call under tracing
	shards       []float64 // shards each traced sharded query touched
	records      []float64 // partial records each traced sharded query shipped
	prefixLen    int
	byPrefix     map[string]int

	probeBefore, probeAfter time.Duration
}

func newRun(w *workload, sz sizing, in *inputs, seconds int, work string, traceOn bool) *run {
	r := &run{w: w, sz: sz, in: in, passes: sz.passes(seconds), work: work, traceOn: traceOn,
		ops: map[string]*opCount{}}
	for _, t := range opTypes {
		r.ops[t] = &opCount{}
	}
	r.results = make([][][]tklus.UserResult, len(in.queries))
	r.execs = make([][]int, len(in.queries))
	for c, qs := range in.queries {
		r.results[c] = make([][]tklus.UserResult, len(qs))
		r.execs[c] = make([]int, len(qs))
	}
	return r
}

func (r *run) fail(format string, args ...any) {
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// execute runs every round, the traced round if asked, and the oracle
// check. It returns an error only when the run could not complete; wrong
// answers are counted as failed operations instead.
func (r *run) execute() error {
	r.probeBefore = hostProbe()
	for i := 0; i < r.sz.Rounds; i++ {
		if err := r.round(i, false); err != nil {
			return err
		}
	}
	if r.traceOn {
		r.tr = newTracer()
		if err := r.round(r.sz.Rounds, true); err != nil {
			return err
		}
	}
	r.probeAfter = hostProbe()
	return r.verify()
}

// round sets the arrangement up from the corpus (timed), warms it up,
// measures the live heap, and runs one timed (or traced) phase.
func (r *run) round(i int, traced bool) error {
	dir := filepath.Join(r.work, fmt.Sprintf("round-%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := liveHeapBytes()
	t0 := time.Now()
	arr, err := r.w.setup(r.in, dir)
	setup := time.Since(t0)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if arr.sharded != nil {
		r.routing(arr.sharded)
	}
	ctx := context.Background()
	for _, q := range r.in.queries[0][:min(r.sz.Warmup, len(r.in.queries[0]))] {
		if _, _, err := arr.search.Search(ctx, q); err != nil {
			arr.close()
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	heap := float64(int64(liveHeapBytes())-int64(base)) / (1 << 20)
	if !traced {
		r.setup = append(r.setup, setup.Seconds())
		r.heap = append(r.heap, heap)
	}
	err = r.phase(ctx, arr, traced)
	if cerr := arr.close(); err == nil {
		err = cerr
	}
	return err
}

// routing records the router's prefix table so the traced run can
// compute each query's fan-out the way the router does.
func (r *run) routing(ss *tklus.ShardedSystem) {
	r.prefixLen = tklus.DefaultShardingConfig().PrefixLen
	r.byPrefix = map[string]int{}
	for name, prefixes := range ss.ShardPrefixes() {
		var idx int
		if _, err := fmt.Sscanf(name, "shard-%d", &idx); err != nil {
			continue
		}
		for _, p := range prefixes {
			r.byPrefix[p] = idx
		}
	}
}

// phase walks the checkpoints: on segments-ingest it first ingests the
// stream up to the checkpoint and runs the checkpoint's seal and
// compaction; then it runs the query list.
func (r *run) phase(ctx context.Context, arr *arrangement, traced bool) error {
	passes := r.passes
	if traced {
		passes = 1
	}
	var seals0, compactions0 int64
	if arr.seg != nil {
		seals0, compactions0 = arr.seg.Store.Seals(), arr.seg.Store.Compactions()
	}
	lat0 := len(r.queryLat)
	write0 := r.writeTime
	u0, rt0, wall0 := readUsage(), readRuntime(), time.Now()
	ingested := 0
	for c, qs := range r.in.queries {
		if arr.seg != nil {
			if err := r.ingest(ctx, arr.seg, ingested, r.in.cuts[c], traced); err != nil {
				return err
			}
			ingested = r.in.cuts[c]
			if r.in.sealAt[c] {
				if err := r.segOp(opSeal, arr.seg.SealNow, traced); err != nil {
					return err
				}
			}
			if r.in.compactAt[c] {
				compact := func() error { _, err := arr.seg.Compact(); return err }
				if err := r.segOp(opCompact, compact, traced); err != nil {
					return err
				}
			}
		}
		for p := 0; p < passes; p++ {
			for i := range qs {
				if traced {
					r.tracedQuery(ctx, arr, c, i)
				} else {
					r.query(ctx, arr, c, i)
				}
			}
		}
	}
	if traced {
		return nil
	}
	wall, u := time.Since(wall0), readUsage()
	r.rt = r.rt.add(readRuntime().sub(rt0))
	lat := r.queryLat[lat0:]
	r.rounds = append(r.rounds, roundFigures{
		queries: len(lat),
		qps:     float64(len(lat)) / wall.Seconds(),
		cpuMs:   ms(u.cpu-u0.cpu) / float64(len(lat)),
		p50:     median(lat),
		p99:     percentile(lat, 0.99),
		writeMs: ms(r.writeTime - write0),
		faults:  u.majorFaults - u0.majorFaults,
	})
	if arr.seg != nil {
		st := arr.seg.Store
		r.store = append(r.store, storeFigures{
			seals:       st.Seals() - seals0,
			compactions: st.Compactions() - compactions0,
			segments:    st.SegmentCount(),
			mappedMB:    float64(st.MappedBytes()) / (1 << 20),
		})
	}
	return nil
}

// query runs one timed search; the counter reads around it stay outside
// the timed interval.
func (r *run) query(ctx context.Context, arr *arrangement, c, i int) {
	db, fs := arr.sys.DB, arr.sys.FS
	db0, fs0 := db.Stats(), fs.Stats()
	t0 := time.Now()
	res, st, err := arr.search.Search(ctx, r.in.queries[c][i])
	d := time.Since(t0)
	db1, fs1 := db.Stats(), fs.Stats()
	lat := ms(d)
	if !r.check(c, i, res, st, err) {
		lat = math.Inf(1)
	}
	r.queryLat = append(r.queryLat, lat)
	r.counts.add(st, db1.PageReads-db0.PageReads, db1.IndexReads-db0.IndexReads, fs1.BytesRead-fs0.BytesRead)
}

// check accounts one query execution: an error, a degraded answer, or a
// top-k that differs from the first execution's fails it. The first
// execution's top-k is kept for the oracle check.
func (r *run) check(c, i int, res []tklus.UserResult, st *tklus.QueryStats, err error) bool {
	op := r.ops[opQuery]
	op.attempted++
	switch {
	case err != nil:
		r.fail("checkpoint %d query %d: %v", c, i, err)
	case st != nil && st.Degraded():
		r.fail("checkpoint %d query %d: degraded shards %v", c, i, st.DegradedShards)
	case r.execs[c][i] == 0:
		r.results[c][i] = res
		r.execs[c][i] = 1
		return true
	case !slices.Equal(res, r.results[c][i]):
		r.fail("checkpoint %d query %d: top-k differs between executions", c, i)
	default:
		r.execs[c][i]++
		return true
	}
	op.failed++
	return false
}

// ingest feeds stream[from:to] to the segmented system in fixed-size
// batches, one IngestContext call each; seals the store makes on the way
// are accounted as seal operations.
func (r *run) ingest(ctx context.Context, seg *tklus.SegmentedSystem, from, to int, traced bool) error {
	for i := from; i < to; i += r.sz.Batch {
		batch := r.in.stream[i:min(i+r.sz.Batch, to)]
		seals0 := seg.Store.Seals()
		var s int
		if traced {
			s = r.tr.begin("segment.ingest", -1, r.tr.request())
		}
		t0 := time.Now()
		err := seg.IngestContext(ctx, batch...)
		d := time.Since(t0)
		if traced {
			r.tr.end(s)
		}
		r.ops[opIngest].attempted++
		r.ops[opSeal].attempted += int(seg.Store.Seals() - seals0)
		if err != nil {
			r.ops[opIngest].failed++
			if !traced {
				r.ingestLat = append(r.ingestLat, math.Inf(1))
			}
			return fmt.Errorf("ingest of stream posts %d..%d: %w", i, i+len(batch), err)
		}
		if !traced {
			r.ingestLat = append(r.ingestLat, ms(d))
			r.ingestTime += d
			r.writeTime += d
			r.ingestPosts += len(batch)
		}
	}
	return nil
}

// segOp runs one explicit seal or compaction, timed.
func (r *run) segOp(op string, fn func() error, traced bool) error {
	var s int
	if traced {
		s = r.tr.begin("segment."+op, -1, r.tr.request())
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if !traced {
		r.writeTime += d
	}
	if traced {
		r.tr.end(s)
	} else if op == opSeal {
		r.sealLat = append(r.sealLat, ms(d))
	} else {
		r.compactLat = append(r.compactLat, ms(d))
	}
	r.ops[op].attempted++
	if err != nil {
		r.ops[op].failed++
		return fmt.Errorf("%s: %w", op, err)
	}
	return nil
}

// tracedQuery runs the real search under a span, then calls each layer's
// public function on the inputs that query gives it, each under its own
// span. All of them share the query's request id.
func (r *run) tracedQuery(ctx context.Context, arr *arrangement, c, i int) {
	tr := r.tr
	q := r.in.queries[c][i]
	req := tr.request()
	r.tracedReqs = append(r.tracedReqs, req)
	root := tr.begin("query", -1, req)
	defer tr.end(root)

	name := "core.search"
	if arr.sharded != nil {
		name = "router.search"
	}
	s := tr.begin(name, root, req)
	res, st, err := arr.search.Search(ctx, q)
	tr.end(s)
	r.tracedSearch = append(r.tracedSearch, ms(tr.spans[s].dur()))
	if !r.check(c, i, res, st, err) {
		return
	}
	if arr.sharded == nil {
		for _, sp := range st.Spans {
			tr.child("core.stage."+sp.Stage, s, sp.Start, sp.Duration)
		}
		eng := arr.sys.Engine
		if arr.seg != nil {
			eng = arr.seg.Engine()
		}
		if err := traceEngine(tr, root, req, eng, arr.sys.DB, q); err != nil {
			r.failTraced(c, i, err)
		}
		return
	}
	alpha := r.in.cfg.Engine.Params.Alpha
	merged, shards, records, err := traceShards(ctx, tr, root, req, arr.sharded, r.prefixLen, r.byPrefix, alpha, q)
	if err != nil {
		r.failTraced(c, i, err)
		return
	}
	if !slices.Equal(merged, res) {
		r.failTraced(c, i, fmt.Errorf("merge of the shards' partials differs from the router's answer"))
		return
	}
	r.shards = append(r.shards, float64(shards))
	r.records = append(r.records, float64(records))
}

// failTraced turns an already-accounted query into a failed one when its
// traced layer calls fail or disagree with it.
func (r *run) failTraced(c, i int, err error) {
	r.ops[opQuery].failed++
	r.fail("checkpoint %d query %d (traced): %v", c, i, err)
}

// verify compares every (checkpoint, query)'s top-k with the workload's
// oracle; each execution of a mismatched query counts as failed.
func (r *run) verify() error {
	want, err := r.w.oracle(r.in)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	for c := range want {
		for i := range want[c] {
			if r.execs[c][i] == 0 || sameTopK(r.results[c][i], want[c][i]) {
				continue
			}
			r.mismatches++
			r.ops[opQuery].failed += r.execs[c][i]
			r.fail("checkpoint %d query %d: top-k %v, oracle %v", c, i, r.results[c][i], want[c][i])
		}
	}
	return nil
}

func (r *run) totals() (attempted, failed int) {
	for _, t := range opTypes {
		attempted += r.ops[t].attempted
		failed += r.ops[t].failed
	}
	return attempted, failed
}
