package lint

import (
	"go/ast"
	"go/token"

	"dewrite/internal/lint/analysis"
)

// nilsafePkgs are the observational instrumentation packages. Every
// component carries a possibly-nil *Collector / *Recorder / *Registry, and
// the hot path relies on "nil means disabled" costing exactly one branch —
// so a method without a guard is a latent panic in every run that disables
// attribution, the timeline or monitoring.
var nilsafePkgs = map[string]bool{
	"timeline": true,
	"attr":     true,
	"monitor":  true,
}

// NilSafe requires exported pointer-receiver methods in the instrumentation
// packages to begin by handling the nil receiver.
var NilSafe = &analysis.Analyzer{
	Name: "nilsafe",
	Doc: `require nil-receiver guards on exported instrumentation methods

In timeline, attr and monitor the nil receiver is the documented
"disabled" state, held unconditionally by every simulated component. An exported method
on a pointer receiver must therefore begin with a nil guard. Three forms
satisfy the check:

	if t == nil { ... return }         // the guard itself
	return t != nil                    // predicates over the receiver
	return t.Other(...) / t.Other(...) // delegation to a guarded sibling`,
	Run: runNilSafe,
}

func runNilSafe(pass *analysis.Pass) (interface{}, error) {
	if !nilsafePkgs[pathBase(pass.Pkg.Path())] {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !fn.Name.IsExported() || fn.Body == nil {
				continue
			}
			recvName, isPtr := receiver(fn)
			if !isPtr || recvName == "" {
				continue // value receivers copy; nil cannot reach them
			}
			if len(fn.Body.List) == 0 || !handlesNil(fn.Body.List[0], recvName) {
				pass.Reportf(fn.Name.Pos(), "exported method %s must begin with a nil-receiver guard (nil *%s is the disabled instrumentation)", fn.Name.Name, receiverTypeName(fn))
			}
		}
	}
	return nil, nil
}

// receiver returns the receiver's name and whether it is a pointer.
func receiver(fn *ast.FuncDecl) (name string, ptr bool) {
	if len(fn.Recv.List) != 1 {
		return "", false
	}
	field := fn.Recv.List[0]
	if _, ok := field.Type.(*ast.StarExpr); !ok {
		return "", false
	}
	if len(field.Names) != 1 {
		return "", true // unnamed pointer receiver can't be guarded or used
	}
	return field.Names[0].Name, true
}

// receiverTypeName renders the receiver's type for the message.
func receiverTypeName(fn *ast.FuncDecl) string {
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	if idx, ok := t.(*ast.IndexExpr); ok {
		if id, ok := idx.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return "receiver"
}

// handlesNil reports whether stmt neutralizes the nil receiver.
func handlesNil(stmt ast.Stmt, recv string) bool {
	switch s := stmt.(type) {
	case *ast.IfStmt:
		// The condition must test recv against nil somewhere (== nil alone
		// or as one operand of || / &&), and the branch must leave the
		// function.
		return containsNilCheck(s.Cond, recv, token.EQL) && branchReturns(s.Body)
	case *ast.ReturnStmt:
		// Either the result is a predicate over the receiver's nilness, or
		// the whole body delegates to a sibling method on the receiver.
		for _, r := range s.Results {
			if containsNilCheck(r, recv, token.EQL) || containsNilCheck(r, recv, token.NEQ) {
				return true
			}
			if isReceiverCall(r, recv) {
				return true
			}
		}
		return false
	case *ast.ExprStmt:
		return isReceiverCall(s.X, recv)
	default:
		return false
	}
}

// containsNilCheck reports whether expr contains `recv op nil`.
func containsNilCheck(expr ast.Expr, recv string, op token.Token) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || b.Op != op {
			return true
		}
		if isIdent(b.X, recv) && isIdent(b.Y, "nil") ||
			isIdent(b.X, "nil") && isIdent(b.Y, recv) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isReceiverCall matches `recv.Method(...)`: delegation to a sibling that
// carries its own guard.
func isReceiverCall(expr ast.Expr, recv string) bool {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return isIdent(sel.X, recv)
}

// branchReturns reports whether the guard's then-branch ends the method.
func branchReturns(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		// A guard ending in panic("...") still neutralizes the nil receiver
		// deliberately (loud contract violation rather than a stray deref).
		if call, ok := last.X.(*ast.CallExpr); ok {
			return isIdent(call.Fun, "panic")
		}
	}
	return false
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
