package main

// This file and layers.go are the only ones that call into the program's
// packages; a refactor of a constructor or a signature lands here and
// nowhere else in the benchmark.

import (
	"bufio"
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"

	stgq "repro"
	"repro/internal/dataset"
)

const locationExtent = dataset.LocationExtentMeters

// buildDataset generates the workload's population.
func buildDataset(w *workload) *dataset.Dataset {
	return dataset.Synthetic(w.People, datasetSeed, w.Days)
}

// saveDataset writes d where stgqd -data reads it.
func saveDataset(d *dataset.Dataset, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := d.Save(bw); err != nil {
		f.Close()
		return fmt.Errorf("save dataset: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("save dataset: %w", err)
	}
	return f.Close()
}

// fingerprint identifies a generated population: counts plus FNV-1a over
// every edge (endpoints, distance bits) and every free calendar slot. A
// change to dataset.Synthetic changes it, and with it the workload.
type fingerprint struct {
	People  int    `json:"people"`
	Edges   int    `json:"edges"`
	Located int    `json:"located"`
	Hash    string `json:"hash"`
}

func fingerprintOf(d *dataset.Dataset) fingerprint {
	h := fnv.New64a()
	var buf [24]byte
	n := d.Graph.NumVertices()
	for u := 0; u < n; u++ {
		d.Graph.Neighbors(u, func(v int, dist float64) {
			if u < v {
				binary.LittleEndian.PutUint64(buf[0:], uint64(u))
				binary.LittleEndian.PutUint64(buf[8:], uint64(v))
				binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(dist))
				h.Write(buf[:])
			}
		})
	}
	for u := 0; u < n; u++ {
		row := d.Cal.Row(u)
		for s := row.NextSet(0); s != -1; s = row.NextSet(s + 1) {
			binary.LittleEndian.PutUint64(buf[0:], uint64(u))
			binary.LittleEndian.PutUint64(buf[8:], uint64(s))
			h.Write(buf[:16])
		}
	}
	return fingerprint{People: n, Edges: d.Graph.NumEdges(), Located: len(d.Locations), Hash: fmt.Sprintf("%016x", h.Sum64())}
}

// fingerprints.json holds the seed commit's fingerprint of every
// workload's population, keyed "name/people". BENCHMARK.json admits no
// extra keys, so they live beside the benchmark instead.
//
//go:embed fingerprints.json
var recordedFingerprintsJSON []byte

func fingerprintKey(w *workload) string { return fmt.Sprintf("%s/%d", w.Name, w.People) }

// checkFingerprint fails when the workload's population is no longer the
// one the baseline was measured on. A population that was never recorded
// (a test's cut-down population) is not checked.
func checkFingerprint(w *workload, d *dataset.Dataset) error {
	var all map[string]fingerprint
	if err := json.Unmarshal(recordedFingerprintsJSON, &all); err != nil {
		return fmt.Errorf("fingerprints.json: %w", err)
	}
	want, ok := all[fingerprintKey(w)]
	if !ok {
		return nil
	}
	if got := fingerprintOf(d); got != want {
		return fmt.Errorf("population of %s is %+v, recorded %+v: dataset.Synthetic changed, so the workload did", w.Name, got, want)
	}
	return nil
}

// world is what the structural validator reads: the static population of
// a read-only workload.
type world struct {
	d *dataset.Dataset
}

func (w world) hasEdge(u, v int) bool { return w.d.Graph.HasEdge(u, v) }

func (w world) neighbors(v int, fn func(u int, dist float64)) { w.d.Graph.Neighbors(v, fn) }

func (w world) free(u, slot int) bool {
	return slot >= 0 && slot < w.d.Cal.Horizon() && w.d.Cal.Available(u, slot)
}

func (w world) location(u int) (x, y float64, ok bool) {
	xy, ok := w.d.Locations[u]
	return xy[0], xy[1], ok
}

// mirror is the in-process planner the servers' answers are compared
// with. It is built from the same generated dataset and receives the same
// mutations; without the index it is the plain reference of the
// repository's own indexed == plain differential.
type mirror struct {
	pl *stgq.Planner
}

func newMirror(d *dataset.Dataset, indexed bool) *mirror {
	pl := stgq.FromDataset(d)
	if indexed {
		pl.EnableIndex()
	}
	return &mirror{pl: pl}
}

// answer is the part of a query result the oracle compares: feasible or
// not, and the objective value.
type answer struct {
	Feasible bool
	Total    float64
}

// isInfeasible reports whether a planner or search error means "no group
// satisfies the query" (HTTP 422) rather than a failure.
func isInfeasible(err error) bool { return errors.Is(err, stgq.ErrNoFeasibleGroup) }

// query runs o on the mirror. A non-nil error is a failure of the mirror
// itself, not an infeasible query.
func (m *mirror) query(o *op) (answer, error) {
	sg := stgq.SGQuery{Initiator: stgq.PersonID(o.Initiator), P: o.Shape.P, S: socialRadius, K: o.Shape.K}
	var (
		total float64
		err   error
	)
	switch o.Class {
	case clsSG:
		var res *stgq.GroupResult
		if res, err = m.pl.FindGroup(sg); err == nil {
			total = res.TotalDistance
		}
	case clsSTG, clsSession:
		var res *stgq.PlanResult
		if res, err = m.pl.PlanActivity(stgq.STGQuery{SGQuery: sg, M: o.Shape.M}); err == nil {
			total = res.TotalDistance
		}
	case clsGSG:
		var res *stgq.GeoPlanResult
		if res, err = m.pl.PlanGeoActivity(stgq.GSGQuery{SGQuery: sg, M: o.Shape.M, X: o.X, Y: o.Y, Radius: o.R}); err == nil {
			total = res.TotalDistance
		}
	default:
		return answer{}, fmt.Errorf("mirror: %s is not a query", o.Class)
	}
	switch {
	case err == nil:
		return answer{Feasible: true, Total: total}, nil
	case isInfeasible(err):
		return answer{}, nil
	}
	return answer{}, fmt.Errorf("mirror %s initiator %d: %w", o.Class, o.Initiator, err)
}

// apply performs a mutation op on the mirror.
func (m *mirror) apply(o *op) error {
	switch o.Class {
	case clsAvail:
		if o.Free {
			return m.pl.SetAvailable(stgq.PersonID(o.Person), o.From, o.To)
		}
		return m.pl.SetBusy(stgq.PersonID(o.Person), o.From, o.To)
	case clsFriend:
		return m.pl.Connect(stgq.PersonID(o.A), stgq.PersonID(o.B), o.Dist)
	case clsLocation:
		return m.pl.SetLocation(stgq.PersonID(o.Person), o.X, o.Y)
	}
	return fmt.Errorf("mirror: %s is not a mutation", o.Class)
}

// applyAll performs the mutations of the lists, in order, and returns how
// many there were. The servers saw the connections' ops interleaved; each
// connection writes only what it owns, so this order gives the same state.
func (m *mirror) applyAll(lists ...[]op) (int, error) {
	n := 0
	for _, ops := range lists {
		for i := range ops {
			if ops[i].Class.isQuery() {
				continue
			}
			if err := m.apply(&ops[i]); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}
