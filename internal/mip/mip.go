package mip

import (
	"fmt"
	"math"
	"sort"
)

// Problem is a mixed 0/1-integer linear program in minimization form.
// Variables have bounds [Lower, Upper]; integer variables are branched to
// integrality by the solver.
type Problem struct {
	obj     []float64
	lower   []float64
	upper   []float64
	integer []bool
	rows    []row
}

type row struct {
	coefs map[int]float64
	sense Sense
	rhs   float64
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem { return &Problem{} }

// AddVar adds a variable with the given objective coefficient and bounds,
// returning its index. integer marks it for branching (use bounds [0,1] for
// binaries).
func (p *Problem) AddVar(obj, lo, hi float64, integer bool) int {
	p.obj = append(p.obj, obj)
	p.lower = append(p.lower, lo)
	p.upper = append(p.upper, hi)
	p.integer = append(p.integer, integer)
	return len(p.obj) - 1
}

// AddBinary adds a 0/1 integer variable.
func (p *Problem) AddBinary(obj float64) int { return p.AddVar(obj, 0, 1, true) }

// AddConstraint adds Σ coefs[j]·x_j (sense) rhs. The coefficient map is
// copied.
func (p *Problem) AddConstraint(coefs map[int]float64, sense Sense, rhs float64) {
	c := make(map[int]float64, len(coefs))
	for j, v := range coefs {
		if v != 0 {
			c[j] = v
		}
	}
	p.rows = append(p.rows, row{coefs: c, sense: sense, rhs: rhs})
}

// NumVars returns the number of variables.
func (p *Problem) NumVars() int { return len(p.obj) }

// NumConstraints returns the number of constraints.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// Solution is an optimal (or best-found) assignment.
type Solution struct {
	X         []float64
	Objective float64
	// Nodes is the number of branch-and-bound nodes evaluated.
	Nodes int
	// Proven reports whether optimality was proven (false only when the
	// node limit interrupted the search with an incumbent in hand).
	Proven bool
}

// SolveOptions controls the branch-and-bound driver.
type SolveOptions struct {
	// MaxNodes bounds the search tree size (0 = default 1<<22).
	MaxNodes int
}

// Solve runs branch and bound with LP-relaxation bounds and returns the
// optimal solution, ErrInfeasible, ErrUnbounded, or ErrNodeLimit (when the
// budget ran out before any incumbent was found).
func (p *Problem) Solve(opt SolveOptions) (*Solution, error) {
	if opt.MaxNodes <= 0 {
		opt.MaxNodes = 1 << 22
	}
	for j := range p.obj {
		if p.lower[j] > p.upper[j]+eps {
			return nil, ErrInfeasible
		}
		if math.IsInf(p.lower[j], -1) {
			return nil, fmt.Errorf("mip: variable %d has no finite lower bound", j)
		}
	}

	s := &bbState{p: p, best: math.Inf(1), maxNodes: opt.MaxNodes}
	err := s.branch(append([]float64(nil), p.lower...), append([]float64(nil), p.upper...))
	if err != nil && err != errBudget {
		return nil, err
	}
	if s.bestX == nil {
		if err == errBudget {
			return nil, ErrNodeLimit
		}
		return nil, ErrInfeasible
	}
	return &Solution{
		X:         s.bestX,
		Objective: s.best,
		Nodes:     s.nodes,
		Proven:    err == nil,
	}, nil
}

var errBudget = fmt.Errorf("mip: internal budget sentinel")

// bbState is one depth-first search: the incumbent and the node budget.
type bbState struct {
	p        *Problem
	best     float64
	bestX    []float64
	nodes    int
	maxNodes int
}

// branch solves the LP relaxation under the given bounds and recurses on the
// most fractional integer variable.
func (s *bbState) branch(lower, upper []float64) error {
	if s.nodes >= s.maxNodes {
		return errBudget
	}
	s.nodes++
	x, obj, err := s.p.relax(lower, upper)
	if err == ErrInfeasible {
		return nil
	}
	if err != nil {
		return err
	}
	if obj >= s.best-1e-9 {
		return nil // bound: cannot improve the incumbent
	}

	frac := mostFractional(s.p, x)
	if frac == -1 {
		// The bound test above ensures obj improves on the incumbent.
		s.best, s.bestX = obj, roundIntegers(s.p, x)
		return nil
	}

	floorV := math.Floor(x[frac])
	// Explore the nearer child first.
	children := [2][2]float64{
		{lower[frac], floorV},     // x ≤ floor
		{floorV + 1, upper[frac]}, // x ≥ ceil
	}
	order := [2]int{0, 1}
	if x[frac]-floorV > 0.5 {
		order = [2]int{1, 0}
	}
	for _, idx := range order {
		lo, hi := children[idx][0], children[idx][1]
		if lo > hi+eps {
			continue
		}
		savedLo, savedHi := lower[frac], upper[frac]
		lower[frac], upper[frac] = lo, hi
		err := s.branch(lower, upper)
		lower[frac], upper[frac] = savedLo, savedHi
		if err != nil {
			return err
		}
	}
	return nil
}

// mostFractional picks the integer variable farthest from integrality, or
// -1 when x is integer feasible.
func mostFractional(p *Problem, x []float64) int {
	frac := -1
	fracDist := 0.0
	for j, isInt := range p.integer {
		if !isInt {
			continue
		}
		f := x[j] - math.Floor(x[j])
		d := math.Min(f, 1-f)
		if d > intTol && d > fracDist {
			fracDist = d
			frac = j
		}
	}
	return frac
}

func roundIntegers(p *Problem, x []float64) []float64 {
	xi := append([]float64(nil), x...)
	for j, isInt := range p.integer {
		if isInt {
			xi[j] = math.Round(xi[j])
		}
	}
	return xi
}

// relax builds and solves the LP relaxation under the given bounds.
// Variables are shifted to y = x − lower; fixed variables (lower == upper)
// are substituted out.
func (p *Problem) relax(lower, upper []float64) ([]float64, float64, error) {
	n := len(p.obj)
	colOf := make([]int, n) // -1 when substituted out
	nCols := 0
	for j := 0; j < n; j++ {
		if upper[j]-lower[j] < eps {
			colOf[j] = -1
		} else {
			colOf[j] = nCols
			nCols++
		}
	}

	var (
		a     [][]float64
		b     []float64
		sense []Sense
	)
	objConst := 0.0
	c := make([]float64, nCols)
	for j := 0; j < n; j++ {
		objConst += p.obj[j] * lower[j]
		if colOf[j] >= 0 {
			c[colOf[j]] = p.obj[j]
		}
	}

	for _, r := range p.rows {
		rowVec := make([]float64, nCols)
		rhs := r.rhs
		nonzero := false
		for j, v := range r.coefs {
			rhs -= v * lower[j]
			if colOf[j] >= 0 {
				rowVec[colOf[j]] += v
				nonzero = true
			}
		}
		if !nonzero {
			// All variables fixed: the constraint must hold as stated.
			ok := true
			switch r.sense {
			case LE:
				ok = 0 <= rhs+1e-7
			case GE:
				ok = 0 >= rhs-1e-7
			case EQ:
				ok = math.Abs(rhs) <= 1e-7
			}
			if !ok {
				return nil, 0, ErrInfeasible
			}
			continue
		}
		a = append(a, rowVec)
		b = append(b, rhs)
		sense = append(sense, r.sense)
	}

	// Finite upper bounds become rows y_j ≤ upper − lower.
	for j := 0; j < n; j++ {
		if colOf[j] < 0 || math.IsInf(upper[j], 1) {
			continue
		}
		rowVec := make([]float64, nCols)
		rowVec[colOf[j]] = 1
		a = append(a, rowVec)
		b = append(b, upper[j]-lower[j])
		sense = append(sense, LE)
	}

	lp := &stdLP{m: len(a), n: nCols, a: a, b: b, sense: sense, c: c}
	if err := lp.validate(); err != nil {
		return nil, 0, err
	}
	y, obj, err := solveStdLP(lp)
	if err != nil {
		return nil, 0, err
	}
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		x[j] = lower[j]
		if colOf[j] >= 0 {
			x[j] += y[colOf[j]]
		}
	}
	return x, obj + objConst, nil
}

// String renders the problem compactly for debugging.
func (p *Problem) String() string {
	out := fmt.Sprintf("min over %d vars, %d constraints\n", p.NumVars(), p.NumConstraints())
	for _, r := range p.rows {
		keys := make([]int, 0, len(r.coefs))
		for j := range r.coefs {
			keys = append(keys, j)
		}
		sort.Ints(keys)
		for _, j := range keys {
			out += fmt.Sprintf(" %+g·x%d", r.coefs[j], j)
		}
		out += fmt.Sprintf(" %s %g\n", r.sense, r.rhs)
	}
	return out
}
