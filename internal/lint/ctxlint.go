package lint

import (
	"go/ast"
	"go/types"
)

// Ctxlint enforces the cancellation contract on the service-plane
// packages (rpc, cluster, analyzer, statesync): an exported function that
// performs I/O must take context.Context as its first parameter, and must
// not sever the chain by passing context.Background()/context.TODO() to a
// ctx-aware downstream call. Analyzer.Run's partial-cost contract — a
// cancelled diagnosis returns the cost actually incurred — only holds if
// every remote round between Run and the socket threads the same ctx.
//
// "Performs I/O" is judged on the function's direct body (function
// literals it builds, e.g. HTTP handler closures, are deferred behaviour
// and judged by their own enclosing rules): a call into net/http's
// request paths, a method on a type named HTTPClient, or any ctx-aware
// call (first parameter context.Context). Handlers are exempt through
// their *http.Request parameter — r.Context() is the request's context.
var Ctxlint = &Analyzer{
	Name: "ctxlint",
	Run:  runCtxlint,
}

// ctxPkgs are the packages under the context contract.
var ctxPkgs = map[string]bool{
	"rpc":       true,
	"cluster":   true,
	"analyzer":  true,
	"statesync": true,
}

func runCtxlint(pass *Pass) error {
	if !pkgPathHasSegment(pass.Pkg.Path(), ctxPkgs) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			checkCtxFunc(pass, fd)
		}
	}
	return nil
}

func checkCtxFunc(pass *Pass, fd *ast.FuncDecl) {
	fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig := fn.Type().(*types.Signature)

	hasCtxParam := firstParamIsContext(sig)
	hasRequestParam := false
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if p, ok := t.(*types.Pointer); ok {
			if named, ok := p.Elem().(*types.Named); ok {
				o := named.Obj()
				if o.Name() == "Request" && o.Pkg() != nil && o.Pkg().Path() == "net/http" {
					hasRequestParam = true
				}
			}
		}
	}

	// Scan the direct body only: function literals are deferred work.
	var ioCalls []*ast.CallExpr
	var severed []*ast.CallExpr // ctx-aware calls fed Background()/TODO()
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass.Info, call)
		if callee == nil {
			return true
		}
		csig, _ := callee.Type().(*types.Signature)
		ctxAware := firstParamIsContext(csig)
		if ctxAware || isHTTPIOCall(callee) {
			ioCalls = append(ioCalls, call)
		}
		if ctxAware && len(call.Args) > 0 && isBackgroundOrTODO(pass.Info, call.Args[0]) {
			severed = append(severed, call)
		}
		return true
	})
	if len(ioCalls) == 0 {
		return
	}

	recv := ""
	if r := recvTypeName(fn); r != "" {
		recv = r + "."
	}
	if !hasCtxParam && !hasRequestParam {
		// The signature is the root cause; severed downstream calls
		// inside are a symptom of the same finding, not reported twice.
		pass.Reportf(fd.Name.Pos(), "exported %s%s performs I/O but does not take context.Context as its first parameter; thread ctx through", recv, fn.Name())
		return
	}
	for _, call := range severed {
		pass.Reportf(call.Pos(), "call severs the caller's context with context.Background/TODO; pass the function's ctx so cancellation and partial-cost accounting propagate")
	}
}

// isHTTPIOCall reports whether fn is a net/http request-path call or an
// HTTPClient method — I/O even without a ctx parameter.
func isHTTPIOCall(fn *types.Func) bool {
	if recvTypeName(fn) == "HTTPClient" {
		// Cleanup methods tear state down without a network round.
		return fn.Name() != "Close" && fn.Name() != "CloseIdleConnections"
	}
	if funcPkgPath(fn) != "net/http" {
		return false
	}
	switch recvTypeName(fn) {
	case "":
		switch fn.Name() {
		case "Get", "Post", "PostForm", "Head":
			return true
		}
	case "Client":
		switch fn.Name() {
		case "Do", "Get", "Post", "PostForm", "Head":
			return true
		}
	case "Transport":
		return fn.Name() == "RoundTrip"
	}
	return false
}

// isBackgroundOrTODO reports whether e is context.Background() or
// context.TODO().
func isBackgroundOrTODO(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(info, call)
	if fn == nil || funcPkgPath(fn) != "context" {
		return false
	}
	return fn.Name() == "Background" || fn.Name() == "TODO"
}
