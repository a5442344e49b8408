// Command docscheck is the repository's documentation gate (make
// docs-check, wired into CI). It enforces two invariants that rot
// silently otherwise:
//
//  1. Godoc coverage: every exported identifier — functions, methods,
//     types, consts, vars, and exported struct fields — in the cluster
//     packages (internal/gateway, internal/replica, internal/journal,
//     internal/service) carries a doc comment. A grouped const/var
//     declaration's doc covers its members.
//  2. Link integrity: every relative link in README.md and docs/*.md
//     resolves to a file that exists.
//
// It prints each violation with its location and exits non-zero when
// anything is missing, so CI fails before undocumented API or a broken
// runbook link lands on main.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// checkedPackages are the distributed-system packages whose exported
// surface operators and integrators actually program against, plus the
// CI tool packages themselves — their package docs are the tools'
// reference manuals.
var checkedPackages = []string{
	"internal/gateway",
	"internal/geo",
	"internal/index",
	"internal/replica",
	"internal/journal",
	"internal/obsv",
	"internal/service",
	"internal/tools/docscheck",
	"internal/tools/stgqcheck",
}

// checkedDocs are the markdown files whose links must resolve.
var checkedDocs = []string{"README.md", "docs"}

func main() {
	var problems []string
	for _, pkg := range checkedPackages {
		ps, err := checkPackageDocs(pkg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %s: %v\n", pkg, err)
			os.Exit(2)
		}
		problems = append(problems, ps...)
	}
	mds, err := collectMarkdown(checkedDocs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(2)
	}
	for _, md := range mds {
		ps, err := checkLinks(md)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %s: %v\n", md, err)
			os.Exit(2)
		}
		problems = append(problems, ps...)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Printf("docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d packages and %d markdown files clean\n", len(checkedPackages), len(mds))
}

// checkPackageDocs reports every exported identifier in pkg that lacks a
// doc comment. Test files are exempt: their exported helpers document
// themselves through the tests that use them.
func checkPackageDocs(pkg string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, pkg, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var problems []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						report(d.Pos(), "function", funcDisplayName(d))
					}
				case *ast.GenDecl:
					checkGenDecl(d, report)
				}
			}
		}
	}
	return problems, nil
}

// funcDisplayName renders Func or (Recv).Method for reports.
func funcDisplayName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	return "(" + typeName(d.Recv.List[0].Type) + ")." + d.Name.Name
}

func typeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return "*" + typeName(t.X)
	case *ast.IndexExpr:
		return typeName(t.X)
	}
	return "?"
}

// checkGenDecl walks one const/var/type declaration. A doc on the whole
// group covers every member (the standard idiom for enum-like const
// blocks); otherwise each exported spec needs its own doc or trailing
// comment.
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	kind := map[token.Token]string{token.CONST: "const", token.VAR: "var", token.TYPE: "type"}[d.Tok]
	if kind == "" {
		return // imports
	}
	groupDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.ValueSpec:
			documented := groupDoc || s.Doc != nil || s.Comment != nil
			for _, name := range s.Names {
				if name.IsExported() && !documented {
					report(name.Pos(), kind, name.Name)
				}
			}
		case *ast.TypeSpec:
			if s.Name.IsExported() && !groupDoc && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), "type", s.Name.Name)
			}
			if !s.Name.IsExported() {
				continue
			}
			// Exported fields and interface methods are API surface too.
			switch t := s.Type.(type) {
			case *ast.StructType:
				checkFieldList(s.Name.Name, t.Fields, "field", report)
			case *ast.InterfaceType:
				checkFieldList(s.Name.Name, t.Methods, "interface method", report)
			}
		}
	}
}

// checkFieldList reports exported, undocumented members of a struct or
// interface body. Embedded fields (no names) are exempt: their docs live
// on the embedded type.
func checkFieldList(owner string, fl *ast.FieldList, kind string, report func(token.Pos, string, string)) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		if f.Doc != nil || f.Comment != nil {
			continue
		}
		for _, name := range f.Names {
			if name.IsExported() {
				report(name.Pos(), kind, owner+"."+name.Name)
			}
		}
	}
}

// mdLink matches [text](target); images ([![..](..)](..)) resolve the
// outer target like any other link.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// collectMarkdown expands the checked list: files stay files, a
// directory contributes every .md inside it (one level; docs/ is flat).
func collectMarkdown(entries []string) ([]string, error) {
	var out []string
	for _, e := range entries {
		fi, err := os.Stat(e)
		if err != nil {
			return nil, fmt.Errorf("%s does not exist (the documentation set is part of the build)", e)
		}
		if !fi.IsDir() {
			out = append(out, e)
			continue
		}
		des, err := os.ReadDir(e)
		if err != nil {
			return nil, err
		}
		for _, de := range des {
			if !de.IsDir() && strings.HasSuffix(de.Name(), ".md") {
				out = append(out, filepath.Join(e, de.Name()))
			}
		}
	}
	return out, nil
}

// checkLinks verifies that every relative link target in one markdown
// file exists on disk (fragments are stripped; external and in-page
// links are skipped).
func checkLinks(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, line := range strings.Split(string(data), "\n") {
		for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems, fmt.Sprintf("%s: broken link %s (no such file %s)", path, m[1], resolved))
			}
		}
	}
	return problems, nil
}
