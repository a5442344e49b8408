package main

import (
	"go/ast"
	"go/token"
)

// anaSeqEpoch forbids ordering two durable sequence numbers with a raw
// <, >, <= or >= in the gateway and replica packages. A durable seq is
// only meaningful within one leadership epoch: after a failover, a
// stale leader's seq 900 does not precede the new leader's seq 100 —
// they are on different histories. PR 4's split-brain came from exactly
// this: ranking candidates by bare DurableSeq let a fenced leader with
// a longer (dead) history win. Cross-node ordering must go through
// replica.CompareSeq, which qualifies the comparison by epoch first.
//
// The check is name-based: any comparison whose operand chain ends in
// a name equal (case-insensitively) to "durableseq" is flagged.
// Equality tests are allowed — == across epochs is a staleness check,
// not an ordering.
var anaSeqEpoch = &analyzer{
	name: "seqepoch",
	desc: "durable-seq ordering in gateway/replica must use epoch-qualified CompareSeq",
	run:  runSeqEpoch,
}

// internal/index is covered too. It keeps no sequence stamps, so
// nothing there is flagged today; it leaves the list with the package.
var seqEpochDirs = []string{"internal/gateway", "internal/replica", "internal/index"}

var orderingOps = map[token.Token]bool{
	token.LSS: true, token.GTR: true, token.LEQ: true, token.GEQ: true,
}

func runSeqEpoch(r *repoTree) []finding {
	var fs []finding
	for _, f := range r.filesUnder(seqEpochDirs...) {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || !orderingOps[be.Op] {
				return true
			}
			if isDurableSeqExpr(be.X) || isDurableSeqExpr(be.Y) {
				fs = append(fs, finding{pos: r.position(be.Pos()), analyzer: "seqepoch",
					msg: "raw " + be.Op.String() + " on a durable seq (" + exprText(be.X) + " " +
						be.Op.String() + " " + exprText(be.Y) +
						"); order through replica.CompareSeq so the epoch qualifies the comparison"})
			}
			return true
		})
	}
	return fs
}

// isDurableSeqExpr reports whether an operand denotes a durable seq:
// an identifier or selector chain whose last name is "durableseq" in
// any casing (DurableSeq, durableSeq, leader.DurableSeq, ...).
func isDurableSeqExpr(e ast.Expr) bool {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	return equalFold(terminalName(e), "durableseq")
}

// equalFold is ASCII-only case-insensitive equality (avoids importing
// strings for one call and unicode tables for none).
func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
