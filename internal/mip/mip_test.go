package mip

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLPSimple2D(t *testing.T) {
	// min -x - 2y s.t. x + y ≤ 4, x ≤ 2, y ≤ 3, x,y ≥ 0 → (1,3), obj -7.
	p := NewProblem()
	x := p.AddVar(-1, 0, 2, false)
	y := p.AddVar(-2, 0, 3, false)
	p.AddConstraint(map[int]float64{x: 1, y: 1}, LE, 4)
	sol, err := p.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-(-7)) > 1e-6 {
		t.Errorf("objective = %v, want -7", sol.Objective)
	}
	if math.Abs(sol.X[x]-1) > 1e-6 || math.Abs(sol.X[y]-3) > 1e-6 {
		t.Errorf("x = %v, want (1,3)", sol.X)
	}
}

func TestLPEqualityAndGE(t *testing.T) {
	// min x + y s.t. x + y = 5, x ≥ 2 → obj 5 with x ∈ [2,5].
	p := NewProblem()
	x := p.AddVar(1, 0, math.Inf(1), false)
	y := p.AddVar(1, 0, math.Inf(1), false)
	p.AddConstraint(map[int]float64{x: 1, y: 1}, EQ, 5)
	p.AddConstraint(map[int]float64{x: 1}, GE, 2)
	sol, err := p.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-5) > 1e-6 {
		t.Errorf("objective = %v, want 5", sol.Objective)
	}
	if sol.X[x] < 2-1e-6 {
		t.Errorf("x = %v violates x ≥ 2", sol.X[x])
	}
}

func TestLPInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(1, 0, 1, false)
	p.AddConstraint(map[int]float64{x: 1}, GE, 3)
	if _, err := p.Solve(SolveOptions{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestLPUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(-1, 0, math.Inf(1), false)
	p.AddConstraint(map[int]float64{x: 1}, GE, 0)
	if _, err := p.Solve(SolveOptions{}); !errors.Is(err, ErrUnbounded) {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
}

func TestKnapsack(t *testing.T) {
	// max 10x1 + 13x2 + 7x3 + 4x4 s.t. 3x1+4x2+2x3+x4 ≤ 6 (binary)
	// → min of negated; optimum picks x1,x3,x4: value 21? Check: x2+x3 = 20
	// weight 6; x1+x3+x4 = 21 weight 6. Optimal 21.
	p := NewProblem()
	v := []float64{10, 13, 7, 4}
	w := []float64{3, 4, 2, 1}
	cons := map[int]float64{}
	for i := range v {
		j := p.AddBinary(-v[i])
		cons[j] = w[i]
	}
	p.AddConstraint(cons, LE, 6)
	sol, err := p.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-(-21)) > 1e-6 {
		t.Errorf("objective = %v, want -21", sol.Objective)
	}
	if !sol.Proven {
		t.Error("optimum should be proven")
	}
}

func TestIntegerRounding(t *testing.T) {
	// min -x s.t. 2x ≤ 3, x integer → x=1 (LP relaxation gives 1.5).
	p := NewProblem()
	x := p.AddVar(-1, 0, 10, true)
	p.AddConstraint(map[int]float64{x: 2}, LE, 3)
	sol, err := p.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.X[x] != 1 {
		t.Errorf("x = %v, want 1", sol.X[x])
	}

	// An integral root LP is the incumbent: one node, proven optimal.
	p = NewProblem()
	b := p.AddBinary(-1)
	p.AddConstraint(map[int]float64{b: 1}, LE, 1)
	sol, err = p.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != -1 || sol.X[b] != 1 || sol.Nodes != 1 || !sol.Proven {
		t.Errorf("integral root: sol = %+v", sol)
	}
}

func TestFixedVariableSubstitution(t *testing.T) {
	// A variable with lower == upper is substituted out.
	p := NewProblem()
	x := p.AddVar(3, 2, 2, false) // fixed at 2
	y := p.AddVar(1, 0, 10, false)
	p.AddConstraint(map[int]float64{x: 1, y: 1}, GE, 5)
	sol, err := p.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.X[x]-2) > 1e-9 || math.Abs(sol.X[y]-3) > 1e-6 {
		t.Errorf("solution = %v, want (2,3)", sol.X)
	}
	if math.Abs(sol.Objective-9) > 1e-6 {
		t.Errorf("objective = %v, want 9", sol.Objective)
	}
}

func TestFixedVariablesInfeasibleRow(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 1, 1, false)
	y := p.AddVar(0, 1, 1, false)
	p.AddConstraint(map[int]float64{x: 1, y: 1}, EQ, 3) // 2 = 3: impossible
	if _, err := p.Solve(SolveOptions{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestInconsistentBounds(t *testing.T) {
	p := NewProblem()
	p.AddVar(1, 3, 2, false)
	if _, err := p.Solve(SolveOptions{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestSetCover(t *testing.T) {
	// Cover {1,2,3} with sets A={1,2} cost 3, B={2,3} cost 3, C={1,2,3}
	// cost 5, D={3} cost 1 → optimum A+D = 4.
	p := NewProblem()
	a := p.AddBinary(3)
	b := p.AddBinary(3)
	c := p.AddBinary(5)
	d := p.AddBinary(1)
	p.AddConstraint(map[int]float64{a: 1, c: 1}, GE, 1)       // element 1
	p.AddConstraint(map[int]float64{a: 1, b: 1, c: 1}, GE, 1) // element 2
	p.AddConstraint(map[int]float64{b: 1, c: 1, d: 1}, GE, 1) // element 3
	sol, err := p.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-4) > 1e-6 {
		t.Errorf("objective = %v, want 4", sol.Objective)
	}
}

func TestNodeLimit(t *testing.T) {
	// A problem that needs branching, with a 1-node budget and no incumbent.
	p := NewProblem()
	x := p.AddBinary(-1)
	y := p.AddBinary(-1)
	p.AddConstraint(map[int]float64{x: 2, y: 2}, LE, 3)
	if _, err := p.Solve(SolveOptions{MaxNodes: 1}); !errors.Is(err, ErrNodeLimit) {
		t.Errorf("err = %v, want ErrNodeLimit", err)
	}
}

// bruteBinary enumerates all assignments of binary variables (continuous
// variables must be absent) and returns the optimal objective.
func bruteBinary(p *Problem, n int) float64 {
	best := math.Inf(1)
	x := make([]float64, n)
	var rec func(j int)
	rec = func(j int) {
		if j == n {
			for _, r := range p.rows {
				lhs := 0.0
				for idx, v := range r.coefs {
					lhs += v * x[idx]
				}
				switch r.sense {
				case LE:
					if lhs > r.rhs+1e-9 {
						return
					}
				case GE:
					if lhs < r.rhs-1e-9 {
						return
					}
				case EQ:
					if math.Abs(lhs-r.rhs) > 1e-9 {
						return
					}
				}
			}
			obj := 0.0
			for idx, c := range p.obj {
				obj += c * x[idx]
			}
			if obj < best {
				best = obj
			}
			return
		}
		x[j] = 0
		rec(j + 1)
		x[j] = 1
		rec(j + 1)
	}
	rec(0)
	return best
}

// TestQuickBinaryProgramsMatchBruteForce: random small 0/1 programs solved
// by branch and bound must match exhaustive enumeration.
func TestQuickBinaryProgramsMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(7)
		p := NewProblem()
		for j := 0; j < n; j++ {
			p.AddBinary(float64(r.Intn(21) - 10))
		}
		rowsN := 1 + r.Intn(4)
		for i := 0; i < rowsN; i++ {
			coefs := map[int]float64{}
			for j := 0; j < n; j++ {
				if r.Float64() < 0.6 {
					coefs[j] = float64(r.Intn(11) - 5)
				}
			}
			if len(coefs) == 0 {
				coefs[r.Intn(n)] = 1
			}
			sense := Sense(r.Intn(3))
			rhs := float64(r.Intn(13) - 4)
			p.AddConstraint(coefs, sense, rhs)
		}
		want := bruteBinary(p, n)
		sol, err := p.Solve(SolveOptions{})
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				return math.IsInf(want, 1)
			}
			t.Logf("seed %d: unexpected error %v", seed, err)
			return false
		}
		if math.Abs(sol.Objective-want) > 1e-6 {
			t.Logf("seed %d: got %v, want %v\n%s", seed, sol.Objective, want, p)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestQuickLPWeakDuality: for feasible bounded LPs, the simplex objective
// must match a fine grid search lower bound on random 2-variable programs.
func TestQuickLP2D(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := NewProblem()
		x := p.AddVar(float64(r.Intn(11)-5), 0, 10, false)
		y := p.AddVar(float64(r.Intn(11)-5), 0, 10, false)
		for i := 0; i < 1+r.Intn(3); i++ {
			p.AddConstraint(map[int]float64{
				x: float64(r.Intn(7) - 3),
				y: float64(r.Intn(7) - 3),
			}, Sense(r.Intn(2)), float64(r.Intn(15)-3))
		}
		sol, err := p.Solve(SolveOptions{})
		// Grid evaluation.
		best := math.Inf(1)
		feasible := false
		for xi := 0.0; xi <= 10; xi += 0.25 {
			for yi := 0.0; yi <= 10; yi += 0.25 {
				ok := true
				for _, row := range p.rows {
					lhs := row.coefs[0]*xi + row.coefs[1]*yi
					if row.sense == LE && lhs > row.rhs+1e-9 {
						ok = false
					}
					if row.sense == GE && lhs < row.rhs-1e-9 {
						ok = false
					}
				}
				if ok {
					feasible = true
					v := p.obj[0]*xi + p.obj[1]*yi
					if v < best {
						best = v
					}
				}
			}
		}
		if err != nil {
			// Simplex says infeasible; grid may have missed a sliver, but
			// if the grid found something feasible the solver is wrong.
			return !(errors.Is(err, ErrInfeasible) && feasible)
		}
		// Optimal LP objective must not exceed any feasible grid point.
		return !feasible || sol.Objective <= best+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
