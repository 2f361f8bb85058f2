package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"

	tklus "repro"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/metadb"
	"repro/internal/thread"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the layer's public function. Spans of one query (or one
// ingest, seal or compact operation) share req.
type span struct {
	name       string
	parent     int // index into tracer.spans; -1 for a root
	req        int
	start, end time.Duration // offsets from the tracer's epoch
	allocStart uint64
	allocs     int64 // heap objects allocated inside the span; -1 if not measured
}

// tracer keeps every span in memory; write dumps them when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
	ac    *allocCounter
	reqs  int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), ac: newAllocCounter()}
}

func (t *tracer) request() int {
	t.reqs++
	return t.reqs
}

// begin opens a span; the clock and allocation counter are read last so
// the span's own bookkeeping stays outside it.
func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{name: name, parent: parent, req: req})
	i := len(t.spans) - 1
	t.spans[i].allocStart = t.ac.read()
	t.spans[i].start = time.Since(t.epoch)
	return i
}

func (t *tracer) end(i int) {
	t.spans[i].end = time.Since(t.epoch)
	t.spans[i].allocs = int64(t.ac.read() - t.spans[i].allocStart)
}

// child records a span the program measured itself (the stage spans
// Search returns), placed at its reported offset inside parent.
func (t *tracer) child(name string, parent int, offset, d time.Duration) {
	p := t.spans[parent]
	s := p.start + offset
	t.spans = append(t.spans, span{name: name, parent: parent, req: p.req, start: s, end: s + d, allocs: -1})
}

func (s span) dur() time.Duration { return s.end - s.start }

// selfTimes returns each span's duration minus the part of its interval
// its child spans cover.
func (t *tracer) selfTimes() []time.Duration {
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range kids[i] {
			a, b := max(t.spans[c].start, s.start), min(t.spans[c].end, s.end)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
		var covered, reach time.Duration
		reach = s.start
		for _, v := range ivs {
			if v.b <= reach {
				continue
			}
			covered += v.b - max(v.a, reach)
			reach = v.b
		}
		self[i] = s.dur() - covered
	}
	return self
}

// spanRecord is the on-disk form of one span.
type spanRecord struct {
	Name   string  `json:"name"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Req    int     `json:"req"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Self   float64 `json:"self_us"`
	Allocs int64   `json:"allocs"`
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := t.selfTimes()
	for i, s := range t.spans {
		rec := spanRecord{Name: s.name, ID: i, Parent: s.parent, Req: s.req,
			Start: us(s.start), End: us(s.end), Self: us(self[i]), Allocs: s.allocs}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perRequest sums span durations (µs) and allocations by span name for
// each of the given requests.
func (t *tracer) perRequest(reqs []int) (durs, allocs []map[string]float64) {
	idx := make(map[int]int, len(reqs))
	for i, r := range reqs {
		idx[r] = i
	}
	durs = make([]map[string]float64, len(reqs))
	allocs = make([]map[string]float64, len(reqs))
	for i := range reqs {
		durs[i] = map[string]float64{}
		allocs[i] = map[string]float64{}
	}
	for _, s := range t.spans {
		i, ok := idx[s.req]
		if !ok {
			continue
		}
		durs[i][s.name] += us(s.dur())
		if s.allocs >= 0 {
			allocs[i][s.name] += float64(s.allocs)
		}
	}
	return durs, allocs
}

// durations lists the duration (µs) of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, us(s.dur()))
		}
	}
	return out
}

// medianOf is the median over requests of one name's per-request sum.
func medianOf(per []map[string]float64, name string) float64 {
	xs := make([]float64, len(per))
	for i, m := range per {
		xs[i] = m[name]
	}
	return median(xs)
}

// overlaps mirrors the engine's partition pruning: a partition is read
// only if its SID range can hold a post inside the query window.
func overlaps(p core.Partition, w *tklus.TimeWindow) bool {
	if w == nil {
		return true
	}
	if p.MaxSID != 0 && tklus.PostID(w.From.UnixNano()) > p.MaxSID {
		return false
	}
	return tklus.PostID(w.To.UnixNano()) >= p.MinSID
}

// drain opens one ⟨cell, term⟩ postings list and walks every posting.
func drain(src core.PostingsSource, cell, term string) error {
	o, lazy := src.(core.PostingsOpener)
	if !lazy {
		_, err := src.FetchPostings(cell, term)
		return err
	}
	it, err := o.OpenPostings(cell, term)
	if err != nil || it == nil {
		return err
	}
	for ok := it.Valid(); ok; ok = it.Next() {
		it.Cur()
	}
	return it.Err()
}

// traceEngine calls, one at a time, the layer functions one engine's
// search runs for q — circle cover, postings open and drain per
// ⟨partition, cell, term⟩, candidate retrieval, the metadata multi-gets
// over the candidates and thread popularity per candidate — and records a
// span around each. The isolated calls repeat work the real search
// already did, without its pruning, so their times need not sum to the
// search's.
func traceEngine(tr *tracer, parent, req int, eng *core.Engine, db *metadb.DB, q tklus.Query) error {
	terms := core.QueryTerms(q.Keywords)
	covers := map[int][]string{}
	var parts []core.Partition
	for _, p := range eng.Partitions {
		if !overlaps(p, q.TimeWindow) {
			continue
		}
		parts = append(parts, p)
		prec := p.Source.GeohashLen()
		if _, ok := covers[prec]; !ok {
			s := tr.begin("geo.cover", parent, req)
			covers[prec] = geo.CircleCover(q.Loc, q.RadiusKm, prec)
			tr.end(s)
		}
	}

	s := tr.begin("invindex.postings", parent, req)
	for _, p := range parts {
		for _, cell := range covers[p.Source.GeohashLen()] {
			for _, term := range terms {
				if err := drain(p.Source, cell, term); err != nil {
					tr.end(s)
					return err
				}
			}
		}
	}
	tr.end(s)

	s = tr.begin("core.candidate_tweets", parent, req)
	cands, _, err := eng.CandidateTweets(q)
	tr.end(s)
	if err != nil {
		return err
	}
	sids := make([]tklus.PostID, len(cands))
	for i, c := range cands {
		sids[i] = c.TID
	}

	s = tr.begin("metadb.batch", parent, req)
	db.GetBySIDBatch(sids)
	db.SelectByRSIDBatch(sids)
	tr.end(s)

	b := thread.Builder{DB: db, Depth: eng.Opts.Params.ThreadDepth, Mode: eng.Opts.ThreadExpand}
	s = tr.begin("thread.popularity", parent, req)
	for _, sid := range sids {
		b.Popularity(sid, eng.Opts.Params.Epsilon, nil)
	}
	tr.end(s)
	return nil
}

// traceShards replays a sharded query's scatter-gather from outside the
// router: the router's prefix cover, each overlapping shard's
// SearchPartials (with the shard engine's layer calls), and the merge.
// It returns the merged top-k, the shards touched and the partial
// records shipped.
func traceShards(ctx context.Context, tr *tracer, parent, req int, ss *tklus.ShardedSystem, prefixLen int,
	byPrefix map[string]int, alpha float64, q tklus.Query) ([]tklus.UserResult, int, int, error) {
	s := tr.begin("geo.cover", parent, req)
	cover := geo.CircleCover(q.Loc, q.RadiusKm, prefixLen)
	tr.end(s)
	var targets []int
	for _, cell := range cover {
		if i, ok := byPrefix[cell]; ok && !slices.Contains(targets, i) {
			targets = append(targets, i)
		}
	}
	slices.Sort(targets)
	if len(targets) == 0 {
		return []tklus.UserResult{}, 0, 0, nil
	}
	parts := make([]*core.Partials, 0, len(targets))
	records := 0
	for _, i := range targets {
		sys := ss.Systems[i]
		s := tr.begin("router.partials", parent, req)
		p, err := sys.SearchPartials(ctx, q)
		tr.end(s)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("shard %d partials: %w", i, err)
		}
		for _, sp := range p.Stats.Spans {
			tr.child("core.stage."+sp.Stage, s, sp.Start, sp.Duration)
		}
		parts = append(parts, p)
		records += len(p.Cands)
		if err := traceEngine(tr, parent, req, sys.Engine, sys.DB, q); err != nil {
			return nil, 0, 0, err
		}
	}
	s = tr.begin("router.merge", parent, req)
	res, _, err := core.MergePartials(q, alpha, parts)
	tr.end(s)
	return res, len(targets), records, err
}
