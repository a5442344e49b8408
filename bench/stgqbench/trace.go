package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one op share its
// index; Parent is the ID of the span that caused this one (0: none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the traced run has one sequential client,
// so it needs no lock.
type tracer struct {
	t0    time.Time
	spans []span
}

// noOp is the Op of spans that belong to no generated op (set-up, probes).
const noOp = -1

func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, StartNs: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].EndNs = int64(time.Since(t.t0)) }

// add records an interval that was timed elsewhere.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: noOp, Name: name,
		StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0))})
	return len(t.spans)
}

func (t *tracer) ms(id int) float64 {
	s := &t.spans[id-1]
	return float64(s.EndNs-s.StartNs) / 1e6
}

// byName collects the durations of every span with the given name.
func (t *tracer) byName(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, t.ms(t.spans[i].ID))
		}
	}
	return out
}

func (t *tracer) write(path string, rec *runRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{rec.Workload, rec.Seed, t.spans})
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Sizes of the traced run at --seconds 10; both scale with --seconds.
const (
	// tracedOps is how many of the workload's own ops are replayed at
	// four depths.
	tracedOps = 400
	// tailPerClass is how many ops of every class follow them, so that
	// every layer is entered on every workload. For a class the mix
	// holds, the tail is a few per cent of its samples; for a class it
	// lacks, the tail is all of them.
	tailPerClass = 12
)

// tail generates the probe ops that follow the workload's own in the
// traced replay: every class in turn, uniform initiators.
func tail(w *workload, seed int64, perClass int, locations map[int][2]float64) []op {
	g, r := uniformGenerator(w, seed, "tail", locations)
	ops := make([]op, 0, perClass*int(nClasses))
	for i := 0; i < perClass; i++ {
		for c := opClass(0); c < nClasses; c++ {
			ops = append(ops, g.build(c, i%w.Conns, r))
		}
	}
	return ops
}

// counters is one reading of the public counters the traced run turns
// into ratios: /metrics of the two backends, /status of the leader. (The
// gateway's cache verdict and choice of backend are read off each
// response instead.)
type counters struct {
	labelHits, labelMisses, labelInvalidations float64
	batches, records, fsyncs, segmentBytes     float64
}

func readCounters(ctx context.Context, c *cluster) (counters, error) {
	var k counters
	for _, p := range []*proc{c.leader, c.follower} {
		m, err := scrape(ctx, c.hc, p.url, "stgq_index_label_hits_total", "stgq_index_label_misses_total", "stgq_index_label_invalidations_total")
		if err != nil {
			return k, err
		}
		k.labelHits += m["stgq_index_label_hits_total"]
		k.labelMisses += m["stgq_index_label_misses_total"]
		k.labelInvalidations += m["stgq_index_label_invalidations_total"]
	}
	st, err := c.status(ctx, c.leader)
	if err != nil {
		return k, err
	}
	if st.Journal != nil {
		k.batches, k.records = float64(st.Journal.Batches), float64(st.Journal.Records)
		k.fsyncs, k.segmentBytes = float64(st.Journal.Fsyncs), float64(st.Journal.SegmentBytes)
	}
	return k, nil
}

// ratio is a/b, and 0 when nothing was counted in b (the workload does
// not exercise the layer; the note beside the metric says so).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// lagPoller samples leader durableSeq − follower durableSeq every 100 ms
// until stopped.
type lagPoller struct {
	stop    chan struct{}
	done    sync.WaitGroup
	samples []float64
}

func startLagPoller(ctx context.Context, c *cluster) *lagPoller {
	lp := &lagPoller{stop: make(chan struct{})}
	lp.done.Add(1)
	go func() {
		defer lp.done.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-lp.stop:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			ls, err1 := c.status(ctx, c.leader)
			fs, err2 := c.status(ctx, c.follower)
			if err1 == nil && err2 == nil && ls.DurableSeq >= fs.DurableSeq {
				lp.samples = append(lp.samples, float64(ls.DurableSeq-fs.DurableSeq))
			}
		}
	}()
	return lp
}

// finish stops the poller and returns its samples.
func (lp *lagPoller) finish() []float64 {
	close(lp.stop)
	lp.done.Wait()
	return lp.samples
}

// setP records the q-th percentile of samples, noting the sample count and
// whether the tail is thin. An empty sample set cannot happen for a
// declared metric (the tail enters every layer) and is an error.
func setP(rec *runRecord, name string, q float64, samples []float64, unit string, scale float64) error {
	if len(samples) == 0 {
		return fmt.Errorf("%s: no samples", name)
	}
	v, beyond := percentile(samples, q)
	rec.set(name, v*scale, unit)
	thin := ""
	if beyond < minBeyond {
		thin = fmt.Sprintf(", thin: %d samples beyond", beyond)
	}
	rec.notef("%s: p%g of %d samples%s", name, q, len(samples), thin)
	return nil
}

// runTraced produces the per-layer metrics of one workload: one untraced
// pass whose only instruments are the program's public counters, then a
// sequential replay that enters every layer from outside and records a
// span around each entry. End-to-end metrics never come from this run.
func runTraced(ctx context.Context, w *workload, cfg runConfig, out string) (*runRecord, error) {
	rec := newRecord(w, cfg, 1)
	tr := &tracer{t0: time.Now()}

	e, _, err := setUp(ctx, w, cfg, w.Name+"-traced")
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	root := tr.add("setup", 0, e.stages[0].start, e.stages[len(e.stages)-1].end)
	for _, st := range e.stages {
		tr.add(st.name, root, st.start, st.end)
	}
	rec.set("dataset.synthetic_s", e.stages[0].end.Sub(e.stages[0].start).Seconds(), "s")
	rec.set("replica.catchup_s", e.c.followerCatchup.Seconds(), "s")
	if err := checkFingerprint(w, e.d); err != nil {
		rec.fail("%v", err)
	}

	// --- One pass under the workload's own discipline, counters only.
	before, err := readCounters(ctx, e.c)
	if err != nil {
		return nil, err
	}
	// The lists in use: the warm-up has run, the counted pass takes the
	// next, the replay the one after, so that neither finds what the one
	// before left in a cache.
	counted, again := e.lists[1], e.lists[2]
	lag := startLagPoller(ctx, e.c)
	pr, st, passErr := e.measuredPass(ctx, counted, nil)
	lagSamples := lag.finish()
	if passErr != nil {
		return nil, passErr
	}
	after, err := readCounters(ctx, e.c)
	if err != nil {
		return nil, err
	}
	rec.Attempted, rec.Failed = st.attempted, st.failed
	rec.set("proc.cpu_ms_per_op", st.cpuMsPerOp, "ms")
	friendWrites := 0.0
	for i := range counted {
		if counted[i].Class == clsFriend && pr.Results[i].answered() {
			friendWrites++
		}
	}
	labelHits := after.labelHits - before.labelHits
	if w.Distinct && (st.cacheHits > 0 || labelHits > 0) {
		rec.fail("cold workload: %d queries were served by the gateway's result cache and %v radius graphs by the label cache", st.cacheHits, labelHits)
	}
	rec.set("index.label_hit_ratio", ratio(labelHits, labelHits+after.labelMisses-before.labelMisses), "ratio")
	rec.set("index.label_invalidations_per_friend_write", ratio(after.labelInvalidations-before.labelInvalidations, friendWrites), "count")
	rec.set("gateway.cache_hit_ratio", ratio(float64(st.cacheHits), float64(len(st.queryMs))), "ratio")
	rec.set("gateway.follower_read_ratio", ratio(float64(st.viaFollow), float64(len(st.queryMs))), "ratio")
	records := after.records - before.records
	rec.set("journal.records_per_batch", ratio(records, after.batches-before.batches), "count")
	rec.set("journal.fsyncs_per_record", ratio(after.fsyncs-before.fsyncs, records), "count")
	rec.set("journal.bytes_per_record", ratio(after.segmentBytes-before.segmentBytes, records), "bytes")
	if records == 0 {
		rec.notef("journal.records_per_batch, fsyncs_per_record, bytes_per_record, index.label_invalidations_per_friend_write: 0 because this mix writes nothing")
	}
	if len(lagSamples) == 0 {
		lagSamples = []float64{0}
	}
	if err := setP(rec, "replica.lag_records_p95", 95, lagSamples, "count", 1); err != nil {
		return nil, err
	}
	for _, m := range []struct {
		name    string
		q       float64
		samples []float64
	}{
		{"client.query_p95_ms", 95, st.queryMs}, {"client.query_p99_ms", 99, st.queryMs}, {"client.op_p95_ms", 95, st.opMs},
	} {
		if err := setP(rec, m.name, m.q, m.samples, "ms", 1); err != nil {
			return nil, err
		}
	}
	if err := setP(rec, "client.lateness_ms_p95", 95, st.lateMs, "ms", 1); err != nil {
		return nil, err
	}
	rec.set("client.achieved_rate_ops_s", st.throughput, "ops/s")
	untracedQueryP50, _ := percentile(st.queryMs, 50)

	// The gateway sends every read to the follower, so the leader has yet
	// to answer a query; the replay's direct depth will ask it. Let it
	// answer the counted pass's queries once first, off the clock, or a
	// cold process would pass for the cost of an HTTP hop.
	toLeader := &sender{hc: e.hc, base: e.c.leader.url}
	for i := range counted {
		if counted[i].Class.isQuery() {
			var r result
			toLeader.do(ctx, &counted[i], false, &r)
		}
	}

	// --- The mirror and the layer copies, brought to the servers' state.
	t0 := time.Now()
	mir := newMirror(e.d, true)
	rec.set("stgq.from_dataset_s", time.Since(t0).Seconds(), "s")
	lw := newLayerWorld(e.d)
	rec.set("index.build_s", lw.indexBuild.Seconds(), "s")
	if _, err := mir.applyAll(e.lists[0], counted); err != nil {
		return nil, err
	}
	for _, ops := range [][]op{e.lists[0], counted} {
		for i := range ops {
			lw.apply(&ops[i])
		}
	}

	// --- The replay: each op at four depths, one at a time.
	n := tracedOps * cfg.Seconds / 10
	if n > len(again) {
		n = len(again)
	}
	perClass := tailPerClass * cfg.Seconds / 10
	if perClass < 2 {
		perClass = 2
	}
	replay := append(append([]op(nil), again[:n]...), tail(w, cfg.Seed, perClass, e.d.Locations)...)
	viaGateway := &sender{hc: e.hc, base: e.c.gateway.url, keepTiming: true}
	var (
		gatewayMs, hopSelfMs, httpSelfMs, viewSelfMs, writeMs, mutationUs []float64
		tracedQueryMs                                                     []float64
		callMs                                                            = map[opClass][]float64{}
		balls, ballShare, candidates                                      []float64
		nodes, examined, pivots, prunes                                   float64
		queries, feasible, gsg, gsgFeasible                               float64
		stageMs                                                           = map[string]float64{}
		timedLatencyMs                                                    float64
	)
	for i := range replay {
		o := &replay[i]
		opSpan := tr.begin("op."+o.Class.String(), i, 0)

		var viaGW, direct result
		id := tr.begin("client.gateway", i, opSpan)
		viaGateway.do(ctx, o, true, &viaGW)
		tr.end(id)
		gw := tr.ms(id)
		gatewayMs = append(gatewayMs, gw)

		// Straight to a backend: the leader for a mutation; for a query
		// the backend that did NOT serve it through the gateway. The two
		// backends hold the same state and see the same queries in the
		// same order, so their label caches evolve alike — whereas a
		// repeat on the serving backend would find the label its first
		// execution just stored and look a millisecond cheaper at 100k.
		backend := e.c.leader.url
		if o.Class.isQuery() && viaGW.Backend == backend {
			backend = e.c.follower.url
		}
		id = tr.begin("client.backend", i, opSpan)
		(&sender{hc: e.hc, base: backend}).do(ctx, o, true, &direct)
		tr.end(id)
		rec.Attempted += 2
		if !viaGW.answered() || !direct.answered() {
			rec.Failed++
			rec.notef("failures: traced %s got %d via the gateway, %d direct", o.Class, viaGW.Status, direct.Status)
			tr.end(opSpan)
			continue
		}
		if !viaGW.Cached {
			hopSelfMs = append(hopSelfMs, gw-tr.ms(id))
		}
		if len(viaGW.Timing) > 0 {
			for name, v := range serverTimingMs(viaGW.Timing) {
				stageMs[name] += v
			}
			timedLatencyMs += gw
		}

		if !o.Class.isQuery() {
			writeMs = append(writeMs, gw)
			mid := tr.begin("stgq.mutation", i, opSpan)
			err := mir.apply(o)
			tr.end(mid)
			if err != nil {
				return nil, err
			}
			lw.apply(o)
			mutationUs = append(mutationUs, tr.ms(mid)*1000)
			tr.end(opSpan)
			continue
		}

		tracedQueryMs = append(tracedQueryMs, gw)
		mid := tr.begin("stgq."+plannerCall(o.Class), i, opSpan)
		want, err := mir.query(o)
		tr.end(mid)
		if err != nil {
			return nil, err
		}
		callMs[o.Class] = append(callMs[o.Class], tr.ms(mid))
		httpSelfMs = append(httpSelfMs, tr.ms(id)-tr.ms(mid))

		lid := tr.begin("layers", i, opSpan)
		ls, err := lw.query(tr, lid, i, o)
		tr.end(lid)
		if err != nil {
			return nil, err
		}
		search := 0.0
		for j := lid; j < len(tr.spans); j++ {
			if s := &tr.spans[j]; s.Parent == lid && strings.HasPrefix(s.Name, "core.") {
				search = tr.ms(s.ID)
			}
		}
		viewSelfMs = append(viewSelfMs, tr.ms(mid)-search)
		tr.end(opSpan)

		// Every depth must tell the same story.
		for _, got := range []struct {
			where string
			r     *result
		}{{"gateway", &viaGW}, {"backend", &direct}} {
			a, err := verdictOf(got.r)
			if err != nil || a.Feasible != want.Feasible || (a.Feasible && !closeEnough(a.Total, want.Total)) {
				rec.fail("traced op %d (%s initiator %d): %s answered %+v (%v), mirror %+v", i, o.Class, o.Initiator, got.where, a, err, want)
			}
		}
		if ls.Feasible != want.Feasible || (ls.Feasible && !closeEnough(ls.Total, want.Total)) {
			rec.fail("traced op %d (%s initiator %d): layers answered %+v, mirror %+v", i, o.Class, o.Initiator, ls.answer, want)
		}

		queries++
		if want.Feasible {
			feasible++
		}
		balls = append(balls, float64(ls.ball))
		ballShare = append(ballShare, float64(ls.ball)/float64(w.People))
		nodes += float64(ls.stats.NodesExpanded)
		examined += float64(ls.stats.VerticesExamined)
		pivots += float64(ls.stats.PivotsProcessed)
		prunes += float64(ls.stats.DistancePrunes + ls.stats.AcquaintancePrunes + ls.stats.AvailabilityPrunes)
		if o.Class == clsGSG {
			gsg++
			if want.Feasible {
				gsgFeasible++
			}
			candidates = append(candidates, float64(ls.candidates))
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}

	// Write latency under the workload's own discipline, when it writes.
	clientWrites := st.writeMs
	if len(clientWrites) == 0 {
		clientWrites = writeMs
	}
	for _, m := range []struct {
		name    string
		q       float64
		samples []float64
		unit    string
	}{
		{"stgq.find_group_ms_p50", 50, callMs[clsSG], "ms"},
		{"stgq.plan_activity_ms_p50", 50, append(callMs[clsSTG], callMs[clsSession]...), "ms"},
		{"stgq.plan_geo_ms_p50", 50, callMs[clsGSG], "ms"},
		{"stgq.view_self_ms_p50", 50, viewSelfMs, "ms"},
		{"stgq.mutation_us_p50", 50, mutationUs, "us"},
		{"socialgraph.extract_ms_p50", 50, tr.byName("socialgraph.extract"), "ms"},
		{"socialgraph.ball_vertices_p50", 50, balls, "count"},
		{"socialgraph.ball_vertices_p95", 95, balls, "count"},
		{"core.sgselect_ms_p50", 50, tr.byName("core.sgselect"), "ms"},
		{"core.stgselect_ms_p50", 50, tr.byName("core.stgselect"), "ms"},
		{"core.stgselect_ms_p95", 95, tr.byName("core.stgselect"), "ms"},
		{"core.gsgselect_ms_p50", 50, tr.byName("core.gsgselect"), "ms"},
		{"service.http_self_ms_p50", 50, httpSelfMs, "ms"},
		{"gateway.hop_self_ms_p50", 50, hopSelfMs, "ms"},
		{"client.write_p50_ms", 50, clientWrites, "ms"},
		{"client.write_p99_ms", 99, clientWrites, "ms"},
	} {
		if err := setP(rec, m.name, m.q, m.samples, m.unit, 1); err != nil {
			return nil, err
		}
	}
	if err := setP(rec, "index.avail_snapshot_us_p50", 50, tr.byName("index.avail_snapshot"), "us", 1000); err != nil {
		return nil, err
	}
	if err := setP(rec, "geo.within_radius_us_p50", 50, tr.byName("geo.within_radius"), "us", 1000); err != nil {
		return nil, err
	}
	rec.set("socialgraph.ball_share", mean(ballShare), "ratio")
	if queries == 0 || gsg == 0 {
		return nil, fmt.Errorf("traced replay answered %v queries, %v of them GSG", queries, gsg)
	}
	rec.set("geo.candidates_per_query", mean(candidates), "count")
	rec.set("core.nodes_expanded_per_query", nodes/queries, "count")
	rec.set("core.vertices_examined_per_query", examined/queries, "count")
	rec.set("core.pivots_processed_per_query", pivots/queries, "count")
	rec.set("core.prune_ratio", ratio(prunes, nodes), "ratio")
	rec.set("core.feasible_ratio", feasible/queries, "ratio")
	rec.set("core.gsg_feasible_ratio", gsgFeasible/gsg, "ratio")
	rec.notef("core.*_per_query and core.*_ratio: over %d traced queries (%d GSG); exact counts, they repeat for a given seed", int(queries), int(gsg))

	// The program's own stage accounting, as a cross-check of the self
	// times above: mean of each stage over mean client latency.
	backendStages := 0.0
	for name, v := range stageMs {
		if name != "gw_route" && name != "gw_backend" {
			backendStages += v
		}
	}
	rec.set("obsv.svc_engine_share", ratio(stageMs["svc_engine"], timedLatencyMs), "ratio")
	rec.set("obsv.journal_enqueue_share", ratio(stageMs["journal_enqueue"], timedLatencyMs), "ratio")
	rec.set("obsv.svc_barrier_share", ratio(stageMs["svc_barrier"], timedLatencyMs), "ratio")
	rec.set("obsv.net_overhead_share", ratio(stageMs["gw_backend"]-backendStages, timedLatencyMs), "ratio")
	tracedP50, _ := percentile(tracedQueryMs, 50)
	rec.set("client.traced_over_untraced", ratio(tracedP50, untracedQueryP50), "ratio")
	rec.notef("client.traced_over_untraced: traced query p50 %.3f ms via the gateway, one sequential client; untraced %.3f ms, %d connections", tracedP50, untracedQueryP50, w.Conns)

	// --- Layers measured alone.
	rec.set("schedule.extended_clone_ms", lw.extendedCloneMs(11), "ms")
	jp, err := probeJournal(filepath.Join(e.dir, "journal-probe"), w.Days*48, 60*cfg.Seconds/10+5)
	if err != nil {
		return nil, err
	}
	if err := setP(rec, "journal.append_ms_p50", 50, jp.appendMs, "ms", 1); err != nil {
		return nil, err
	}
	rec.notef("journal alone, one writer: %.2f records per batch, %.2f fsyncs and %.0f bytes per record", jp.recordsPerBatch, jp.fsyncsPerRecord, jp.bytesPerRecord)
	var afterWrite []float64
	for i := range replay {
		if o := &replay[i]; (o.Class == clsSTG || o.Class == clsSession) && len(afterWrite) < 40 {
			v, err := mir.afterWriteMs(lw, o, len(afterWrite)%(w.Days*48))
			if err != nil {
				return nil, err
			}
			afterWrite = append(afterWrite, v)
		}
	}
	if err := setP(rec, "stgq.plan_activity_after_write_ms_p50", 50, afterWrite, "ms", 1); err != nil {
		return nil, err
	}

	// --- Memory, then the crash.
	for _, p := range e.c.procs() {
		mb, err := p.rssPeakMB()
		if err != nil {
			return nil, err
		}
		rec.set("proc."+p.name+"_rss_peak_mb", mb, "MB")
	}
	took, err := e.c.killRestartLeader(ctx)
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	rec.set("journal.recovery_s", took.Seconds(), "s")
	ls, err := e.c.status(ctx, e.c.leader)
	if err != nil {
		return nil, err
	}
	replayed := 0
	if ls.Journal != nil {
		replayed = ls.Journal.ReplayedOnBoot
	}
	rec.set("journal.replayed_on_boot", float64(replayed), "count")
	if ls.DurableSeq < e.maxAcked {
		rec.fail("durability: recovered durableSeq %d is below acknowledged write seq %d", ls.DurableSeq, e.maxAcked)
	}

	noteFailures(rec, st.failures)
	path := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", w.Name, cfg.Seed))
	if err := tr.write(path, rec); err != nil {
		return nil, err
	}
	rec.notef("trace: %d spans in %s", len(tr.spans), path)
	layerTable(rec, tr)
	return rec, ctx.Err()
}

// plannerCall names the planner method a query class reaches.
func plannerCall(c opClass) string {
	switch c {
	case clsSG:
		return "find_group"
	case clsGSG:
		return "plan_geo"
	}
	return "plan_activity"
}

// layerTable notes, per span name, the count, total and total self time:
// where the traced replay's time went.
func layerTable(rec *runRecord, tr *tracer) {
	type row struct {
		n           int
		total, self float64
	}
	rows := map[string]*row{}
	for i := range tr.spans {
		s := &tr.spans[i]
		r := rows[s.Name]
		if r == nil {
			r = &row{}
			rows[s.Name] = r
		}
		r.n++
		r.total += tr.ms(s.ID)
	}
	children := make(map[int]float64, len(tr.spans))
	for i := range tr.spans {
		children[tr.spans[i].Parent] += tr.ms(tr.spans[i].ID)
	}
	for i := range tr.spans {
		s := &tr.spans[i]
		rows[s.Name].self += tr.ms(s.ID) - children[s.ID]
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rec.notef("span %-24s n=%-5d total %10.2f ms  self %10.2f ms", n, rows[n].n, rows[n].total, rows[n].self)
	}
}
