package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockIO generalizes the PR 8 read-path rule to the whole repo: no
// file or sink I/O call while a mutex acquired in the enclosing
// function is still held. Disk latency under a shared lock turns one
// slow device into a stalled store.
//
// The one designed exception is declared, not hardcoded: a mutex
// annotated //trajlint:serializes-io (segstore's per-device log lock)
// is the write path's serialization point, so I/O under it alone is
// the design. Any store-wide lock held across I/O still flags.
var LockIO = &Analyzer{
	Name: "lockio",
	Doc: "no file/fileSystem/sink I/O while holding a mutex acquired " +
		"in the enclosing function, unless every held lock is annotated " +
		"//trajlint:serializes-io",
	Run: runLockIO,
}

func runLockIO(pass *Pass) {
	fx := collectFacts(pass)
	w := &walker{pass: pass, fx: fx}
	w.onCall = func(call *ast.CallExpr, held *lockSet) {
		if held.empty() {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		if !isIOMethod(pass.TypesInfo, sel) {
			return
		}
		var blocking []string
		for _, h := range held.locks {
			if h.obj != nil && fx.serializesIO[h.obj] {
				continue
			}
			blocking = append(blocking, h.expr)
		}
		if len(blocking) == 0 {
			return
		}
		pass.Reportf(call.Pos(), "I/O call %s.%s while holding %s acquired in this function",
			types.ExprString(sel.X), sel.Sel.Name, strings.Join(blocking, ", "))
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				w.walkFunc(fd)
			}
		}
	}
}

// ioReceiverTypes names the interface/struct types whose methods
// perform file or sink I/O, keyed by defining package name. Matching
// is by type name so the analyzer's own testdata fixtures (which
// declare a local `file` interface in a package named segstore)
// exercise the same code path as the real tree.
var ioReceiverTypes = map[string]map[string]bool{
	"segstore": {"file": true, "fileSystem": true},
	"stream":   {"Sink": true},
	"os":       {"File": true},
}

func isIOMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	n := namedOf(s.Recv())
	if n == nil {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return false
	}
	names := ioReceiverTypes[obj.Pkg().Name()]
	return names != nil && names[obj.Name()]
}
