package main

import (
	"go/ast"
)

// anaCtxFlow forbids minting fresh contexts — context.Background() or
// context.TODO() — and calling the context-less net/http package
// helpers (http.Get and friends) in request-path packages. Work on a
// request or replication path must run under a context derived from
// its caller (an http.Request's r.Context(), a server lifecycle
// context) so that shutdown and client disconnects actually cancel
// in-flight dials, streams and retries. A Background() deep in a
// reconnect loop is a goroutine that outlives the process's intent to
// stop.
//
// main() functions are the one legitimate place to mint a root
// context, so cmd/ packages are not scanned.
var anaCtxFlow = &analyzer{
	name: "ctxflow",
	desc: "no context.Background/TODO or context-less http helpers in request-path packages",
	run:  runCtxFlow,
}

var ctxFlowDirs = []string{
	"internal/gateway",
	"internal/replica",
	"internal/service",
	"internal/journal",
}

// ctxlessHTTPFuncs are package-level net/http helpers with no context
// parameter; http.NewRequestWithContext + client.Do is the replacement.
var ctxlessHTTPFuncs = map[string]bool{
	"Get": true, "Post": true, "PostForm": true, "Head": true,
}

func runCtxFlow(r *repoTree) []finding {
	var fs []finding
	for _, f := range r.filesUnder(ctxFlowDirs...) {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// Only package-qualified calls: ident.X — a method .Get on
			// some receiver (url.Values.Get, flag sets) must not match.
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			switch {
			case id.Name == "context" && (sel.Sel.Name == "Background" || sel.Sel.Name == "TODO"):
				fs = append(fs, finding{pos: r.position(call.Pos()), analyzer: "ctxflow",
					msg: "context." + sel.Sel.Name + "() in a request-path package; derive the context from the caller (r.Context() or a lifecycle context) so shutdown cancels this work"})
			case id.Name == "http" && ctxlessHTTPFuncs[sel.Sel.Name]:
				fs = append(fs, finding{pos: r.position(call.Pos()), analyzer: "ctxflow",
					msg: "http." + sel.Sel.Name + " has no context and cannot be cancelled; use http.NewRequestWithContext and a client Do"})
			}
			return true
		})
	}
	return fs
}
