package main

// The traced run enters each layer from outside, through the functions
// the layer's package exports. Together with world.go this is the whole
// of the benchmark's coupling to the program's internals.

import (
	"fmt"
	"os"
	"time"

	stgq "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/journal"
	"repro/internal/obsv"
	"repro/internal/schedule"
)

// layerWorld is the state the exported layer functions run on: the
// mirror's dataset, with copies of the parts the planner keeps private,
// held in step with the mirror by applying every mutation to both.
type layerWorld struct {
	// d is shared with the mirror planner: FromDataset adopts the graph,
	// so the mirror's Connect is visible here.
	d    *dataset.Dataset
	cal  *schedule.Calendar
	idx  *index.Index
	grid *geo.Grid
	// indexBuild is how long index.Build took.
	indexBuild time.Duration
}

func newLayerWorld(d *dataset.Dataset) *layerWorld {
	lw := &layerWorld{d: d, cal: d.Cal.ExtendedClone(0), grid: geo.NewGrid(stgq.DefaultGridCellSize)}
	t0 := time.Now()
	lw.idx = index.Build(lw.cal, 0)
	lw.indexBuild = time.Since(t0)
	for v, xy := range d.Locations {
		lw.grid.Insert(v, geo.Point{X: xy[0], Y: xy[1]})
	}
	return lw
}

// apply keeps the private copies in step with a mutation the mirror has
// just applied (the shared graph needs nothing).
func (lw *layerWorld) apply(o *op) {
	switch o.Class {
	case clsAvail:
		lw.cal.SetRange(o.Person, o.From, o.To, o.Free)
		lw.idx.SetRange(o.Person, o.From, o.To, o.Free)
	case clsLocation:
		lw.grid.Insert(o.Person, geo.Point{X: o.X, Y: o.Y})
	}
}

// layerSample is what one query yields when its layers are called one by
// one.
type layerSample struct {
	answer
	ball       int // vertices in the s-hop radius graph
	candidates int // ids the grid returned (GSG only)
	stats      core.Stats
}

// query runs o's layers in the order the planner does — extract the
// radius graph, snapshot availability or query the grid, search — each
// under its own span below parent.
func (lw *layerWorld) query(tr *tracer, parent, opIdx int, o *op) (layerSample, error) {
	var s layerSample
	id := tr.begin("socialgraph.extract", opIdx, parent)
	rg, err := lw.d.Graph.ExtractRadiusGraph(o.Initiator, socialRadius)
	tr.end(id)
	if err != nil {
		return s, fmt.Errorf("extract radius graph of %d: %w", o.Initiator, err)
	}
	s.ball = rg.N()
	opts := core.DefaultOptions()
	var total float64
	switch o.Class {
	case clsSG:
		id = tr.begin("core.sgselect", opIdx, parent)
		var grp *core.Group
		grp, s.stats, err = core.SGSelect(rg, o.Shape.P, o.Shape.K, nil, opts)
		tr.end(id)
		if err == nil {
			total = grp.TotalDistance
		}
	case clsSTG, clsSession:
		id = tr.begin("index.avail_snapshot", opIdx, parent)
		opts.Runs = lw.idx.AvailSnapshot()
		tr.end(id)
		id = tr.begin("core.stgselect", opIdx, parent)
		var grp *core.STGroup
		grp, s.stats, err = core.STGSelect(rg, lw.cal, dataset.CalUsers(rg), o.Shape.P, o.Shape.K, o.Shape.M, opts)
		tr.end(id)
		if err == nil {
			total = grp.TotalDistance
		}
	case clsGSG:
		center := geo.Point{X: o.X, Y: o.Y}
		id = tr.begin("geo.within_radius", opIdx, parent)
		near := lw.grid.WithinRadius(center, o.R, nil)
		tr.end(id)
		s.candidates = len(near)
		inside := make(map[int]float64, len(near))
		for _, v := range near {
			pt, _ := lw.grid.Location(v)
			inside[v] = pt.DistanceTo(center)
		}
		spat := make([]float64, rg.N())
		for v := range spat {
			spat[v] = -1
			if d, ok := inside[rg.Orig[v]]; ok {
				spat[v] = d
			}
		}
		id = tr.begin("core.gsgselect", opIdx, parent)
		var grp *core.STGroup
		grp, s.stats, err = core.GSGSelect(rg, spat, nil, nil, o.Shape.P, o.Shape.K, 0, opts)
		tr.end(id)
		if err == nil {
			total = grp.TotalDistance
		}
	default:
		return s, fmt.Errorf("layers: %s is not a query", o.Class)
	}
	switch {
	case err == nil:
		s.answer = answer{Feasible: true, Total: total}
	case isInfeasible(err):
	default:
		return s, fmt.Errorf("layers %s initiator %d: %w", o.Class, o.Initiator, err)
	}
	return s, nil
}

// serverTimingMs reads X-STGQ-Server-Timing values into stage →
// milliseconds with the program's own parser.
func serverTimingMs(values []string) map[string]float64 {
	out := obsv.ParseServerTiming(values)
	for name, seconds := range out {
		out[name] = seconds * 1000
	}
	return out
}

// extendedCloneMs times Calendar.ExtendedClone(N), the copy the planner
// makes under its write lock for the first temporal query after an
// availability write.
func (lw *layerWorld) extendedCloneMs(repeats int) float64 {
	n := lw.d.Graph.NumVertices()
	var samples []float64
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		_ = lw.cal.ExtendedClone(n)
		samples = append(samples, ms(time.Since(t0)))
	}
	return median(samples)
}

// journalProbe is the journal layer measured alone: one writer appending
// durable mutations to a fresh store in dir with the default flush policy.
type journalProbe struct {
	appendMs                         []float64
	recordsPerBatch, fsyncsPerRecord float64
	bytesPerRecord                   float64
}

func probeJournal(dir string, horizon, n int) (journalProbe, error) {
	var jp journalProbe
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return jp, err
	}
	st, err := journal.Open(dir, journal.Options{HorizonSlots: horizon})
	if err != nil {
		return jp, fmt.Errorf("journal probe: %w", err)
	}
	pl := st.Planner()
	const people = 8
	for i := 0; i < people; i++ {
		if _, err := pl.AddPerson(""); err != nil {
			st.Close() //nolint:errcheck // the probe already failed
			return jp, fmt.Errorf("journal probe: %w", err)
		}
	}
	before := st.Stats()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := pl.SetAvailable(stgq.PersonID(i%people), i%horizon, i%horizon+1)
		jp.appendMs = append(jp.appendMs, ms(time.Since(t0)))
		if err != nil {
			st.Close() //nolint:errcheck // the probe already failed
			return jp, fmt.Errorf("journal probe: %w", err)
		}
	}
	after := st.Stats()
	records := float64(after.Records - before.Records)
	jp.recordsPerBatch = records / float64(after.Batches-before.Batches)
	jp.fsyncsPerRecord = float64(after.Fsyncs-before.Fsyncs) / records
	jp.bytesPerRecord = float64(after.SegmentBytes-before.SegmentBytes) / records
	if err := st.Close(); err != nil {
		return jp, fmt.Errorf("journal probe: close: %w", err)
	}
	return jp, nil
}

// afterWriteMs is the planner's worst read: SetBusy on the initiator,
// then PlanActivity, which must rebuild the calendar before it can search.
// Only the query is timed.
func (m *mirror) afterWriteMs(lw *layerWorld, o *op, slot int) (float64, error) {
	w := op{Class: clsAvail, Person: o.Initiator, From: slot, To: slot + 1}
	if err := m.apply(&w); err != nil {
		return 0, err
	}
	lw.apply(&w)
	t0 := time.Now()
	_, err := m.query(o)
	return ms(time.Since(t0)), err
}
