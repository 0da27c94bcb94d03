// Package maporder flags range statements over maps whose loop body has
// order-dependent effects: appending to a slice declared outside the loop,
// writing to an output sink (fmt.Fprintf, strings.Builder, io.Writer...), or
// folding a floating-point value into state outside the loop with a compound
// assignment (float addition and multiplication are not associative, so the
// total's last bits follow the iteration order).
// Go's map iteration order is deliberately randomized, so such loops produce
// a different plan, report, or byte stream on every run — exactly the
// nondeterminism class that had to be fixed by hand in the optimizer during
// PR 1. The blessed patterns are: collect the keys, sort them, range over the
// sorted slice; or append inside the loop and sort the result before use —
// an append whose target is passed to a sort call later in the same function
// is therefore not flagged.
package maporder

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"hybridndp/internal/analysis"
)

// Analyzer is the maporder check.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flag map iteration with order-dependent effects (append/output) without sorting",
	Run:  run,
}

// outputFuncs are fmt-style functions that emit in call order.
var outputFuncs = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

// outputMethods are writer methods that emit in call order.
var outputMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(pass, body, rs)
		return true
	})
}

// checkMapRange inspects one map-range's body for order-dependent effects.
func checkMapRange(pass *analysis.Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			// total += x on a float declared outside the loop (or an outer
			// map element other than the iteration key's own).
			if floatFold(pass, s) && !declaredWithin(pass, s.Lhs[0], rs.Body) && !ownKeyElement(pass, s.Lhs[0], rs) {
				pass.Reportf(s.Pos(), "floating-point %s to %s inside range over map %s: the result depends on iteration order; fold in sorted key order (vclock.SumAccount for accounts)",
					s.Tok, render(s.Lhs[0]), render(rs.X))
			}
			// target = append(target, ...) with target declared outside the loop.
			for i, rhs := range s.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isAppend(pass, call) || i >= len(s.Lhs) {
					continue
				}
				target := s.Lhs[i]
				if declaredWithin(pass, target, rs.Body) {
					continue
				}
				if sortedAfter(pass, fnBody, rs, target) {
					continue
				}
				pass.Reportf(s.Pos(), "append to %s inside range over map %s: iteration order is random; sort the keys first or sort %s before use",
					render(target), render(rs.X), render(target))
			}
		case *ast.CallExpr:
			if name, out := isOutputCall(pass, s); out {
				pass.Reportf(s.Pos(), "%s inside range over map %s emits in random iteration order; sort the keys first",
					name, render(rs.X))
			}
		}
		return true
	})
}

// floatFold reports whether s is a compound assignment (+=, -=, *=, /=) to a
// floating-point target.
func floatFold(pass *analysis.Pass, s *ast.AssignStmt) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return false
	}
	t := pass.TypeOf(s.Lhs[0])
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// ownKeyElement reports whether e is a map element indexed by the range's own
// key variable (shares[k] /= total): each iteration updates a different
// element, so nothing folds across iterations.
func ownKeyElement(pass *analysis.Pass, e ast.Expr, rs *ast.RangeStmt) bool {
	ix, ok := e.(*ast.IndexExpr)
	if !ok {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok {
		return false
	}
	id, ok := ix.Index.(*ast.Ident)
	return ok && pass.Info.ObjectOf(id) != nil && pass.Info.ObjectOf(id) == pass.Info.ObjectOf(key)
}

// isAppend reports whether call is the builtin append.
func isAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
		return b.Name() == "append"
	}
	return false
}

// declaredWithin reports whether e's base identifier is declared inside
// node's source range (i.e. loop-local state): a selector or index target
// such as dedup.Conds is loop-local when dedup is.
func declaredWithin(pass *analysis.Pass, e ast.Expr, node ast.Node) bool {
	for {
		switch t := e.(type) {
		case *ast.SelectorExpr:
			e = t.X
			continue
		case *ast.IndexExpr:
			e = t.X
			continue
		case *ast.ParenExpr:
			e = t.X
			continue
		}
		break
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Info.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() >= node.Pos() && obj.Pos() <= node.End()
}

// isOutputCall classifies fmt print functions and writer methods.
func isOutputCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok {
			if pn.Imported().Path() == "fmt" && outputFuncs[sel.Sel.Name] {
				return "fmt." + sel.Sel.Name, true
			}
			return "", false
		}
	}
	if outputMethods[sel.Sel.Name] && pass.Info.Selections[sel] != nil {
		return render(sel.X) + "." + sel.Sel.Name, true
	}
	return "", false
}

// sortedAfter reports whether target is passed to a sort call after the range
// statement within the enclosing function body (append-then-sort pattern).
func sortedAfter(pass *analysis.Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, target ast.Expr) bool {
	want := render(target)
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.Info.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		if p := pn.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if exprMentions(arg, want) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// exprMentions reports whether want's rendering appears as a subexpression.
func exprMentions(e ast.Expr, want string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if expr, ok := n.(ast.Expr); ok && render(expr) == want {
			found = true
			return false
		}
		return true
	})
	return found
}

func render(e ast.Expr) string {
	var b bytes.Buffer
	_ = printer.Fprint(&b, token.NewFileSet(), e)
	return b.String()
}
