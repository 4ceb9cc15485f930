package lint

import (
	"go/ast"
	"go/types"
)

// Locklint flags network-blocking calls made while a sync.Mutex/RWMutex
// is held. The store's shard locks and the switch agent's control-plane
// mutex serialize hot-path state; an HTTP round trip under one of them
// turns a 250 µs lock hold into a multi-millisecond stall for every
// absorber and querier behind it — or a deadlock when the remote side
// needs the same lock (the class PR 5's snapshot-under-absorption design
// dodged by cloning under the lock and writing to the wire outside it).
//
// "Can block on the network" means, per call site in the locked region:
//
//   - anything in net/http or a net.Dial*/Listen* call,
//   - any method on a type named HTTPClient (the rpc wire client),
//   - any ctx-aware call (first parameter context.Context) into the
//     service-plane packages rpc, cluster, or statesync — by this repo's
//     ctxlint contract, exactly the functions that may touch the network,
//   - any same-package function that transitively does one of the above
//     (computed to a fixpoint over the package's own call graph).
var Locklint = &Analyzer{
	Name: "locklint",
	Run:  runLocklint,
}

// servicePlanePkgs are packages whose ctx-aware exported functions are
// assumed to reach the network (ctxlint enforces the converse).
var servicePlanePkgs = map[string]bool{
	"rpc":       true,
	"cluster":   true,
	"statesync": true,
}

func runLocklint(pass *Pass) error {
	// Fixpoint: which functions declared in this package block on the
	// network (directly, or via a same-package call)?
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	blocking := make(map[*types.Func]bool)
	directlyBlocking := func(fn *types.Func) bool {
		switch funcPkgPath(fn) {
		case "net/http":
			// Only the entry points that perform network I/O — not
			// constructors, muxes, or header plumbing.
			switch recvTypeName(fn) {
			case "":
				switch fn.Name() {
				case "Get", "Post", "PostForm", "Head", "ListenAndServe", "ListenAndServeTLS", "Serve", "ServeTLS":
					return true
				}
			case "Client":
				switch fn.Name() {
				case "Do", "Get", "Post", "PostForm", "Head":
					return true
				}
			case "Server":
				switch fn.Name() {
				case "ListenAndServe", "ListenAndServeTLS", "Serve", "ServeTLS", "Shutdown":
					return true
				}
			case "Transport":
				return fn.Name() == "RoundTrip"
			}
			return false
		case "net":
			switch fn.Name() {
			case "Dial", "DialTimeout", "DialUDP", "DialTCP", "DialIP", "Listen", "ListenTCP", "ListenUDP", "ListenPacket", "LookupHost", "LookupAddr", "LookupIP":
				return true
			}
		}
		if recvTypeName(fn) == "HTTPClient" {
			// Cleanup methods tear state down without a network round.
			return fn.Name() != "Close" && fn.Name() != "CloseIdleConnections"
		}
		if sig, ok := fn.Type().(*types.Signature); ok && firstParamIsContext(sig) {
			if pkgPathHasSegment(funcPkgPath(fn), servicePlanePkgs) {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			if blocking[fn] {
				continue
			}
			found := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if found {
					return false
				}
				if _, isLit := n.(*ast.FuncLit); isLit {
					// A closure's body runs later, not when this
					// function is called — it is its own region.
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
				if directlyBlocking(callee) || blocking[callee] {
					found = true
				}
				return true
			})
			if found {
				blocking[fn] = true
				changed = true
			}
		}
	}

	describe := func(fn *types.Func) string {
		if r := recvTypeName(fn); r != "" {
			return r + "." + fn.Name()
		}
		return fn.Name()
	}
	check := func(call *ast.CallExpr, heldExpr string) {
		callee := calleeFunc(pass.Info, call)
		if callee == nil {
			return
		}
		if directlyBlocking(callee) || blocking[callee] {
			pass.Reportf(call.Pos(), "%s can block on the network while %s is locked; move the call outside the critical section (clone under the lock, send outside it)", describe(callee), heldExpr)
		}
	}
	for _, fd := range decls {
		scanLockedRegions(pass, fd.Body, nil, check)
		// Each function literal (HTTP handler closures in particular) is
		// its own locked-region scan with a fresh held set.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				scanLockedRegions(pass, lit.Body, nil, check)
			}
			return true
		})
	}
	return nil
}

// lockOp classifies a statement-level call as a mutex acquire or release.
type lockOp struct {
	recv    string // source text of the receiver expression
	acquire bool
}

func classifyLockCall(pass *Pass, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	fn := calleeFunc(pass.Info, call)
	if fn == nil || funcPkgPath(fn) != "sync" {
		return lockOp{}, false
	}
	r := recvTypeName(fn)
	if r != "Mutex" && r != "RWMutex" {
		return lockOp{}, false
	}
	op := lockOp{recv: exprText(pass, sel.X)}
	switch fn.Name() {
	case "Lock", "RLock":
		op.acquire = true
	case "Unlock", "RUnlock":
		op.acquire = false
	default: // TryLock etc.: treat as acquire
		op.acquire = true
	}
	return op, true
}

// exprText renders an expression as compact source text for lock
// identity and messages (e.g. "sh.mu", "a.ctrlMu").
func exprText(pass *Pass, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(pass, x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprText(pass, x.X) + "[...]"
	case *ast.CallExpr:
		return exprText(pass, x.Fun) + "(...)"
	case *ast.UnaryExpr:
		return exprText(pass, x.X)
	case *ast.StarExpr:
		return exprText(pass, x.X)
	default:
		return "lock"
	}
}

// scanLockedRegions walks stmts linearly, tracking which mutexes are held
// (including defer'd unlock meaning "held to the end"), and invokes check
// on every call expression evaluated while at least one lock is held.
// Nested blocks inherit a copy of the held set: a branch's acquisitions
// and releases do not leak into its siblings — conservative, but exactly
// right for the dominant lock();defer unlock() and lock();...;unlock()
// shapes this codebase uses.
func scanLockedRegions(pass *Pass, body *ast.BlockStmt, held map[string]bool, check func(call *ast.CallExpr, heldExpr string)) {
	if held == nil {
		held = make(map[string]bool)
	}
	anyHeld := func() (string, bool) {
		for k := range held {
			return k, true
		}
		return "", false
	}
	// checkExpr flags blocking calls inside e, without descending into
	// function literals (their bodies run later, possibly lock-free).
	checkExpr := func(e ast.Node) {
		name, ok := anyHeld()
		if !ok {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if _, isLock := classifyLockCall(pass, call); !isLock {
					check(call, name)
				}
			}
			return true
		})
	}
	for _, stmt := range body.List {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if op, isLock := classifyLockCall(pass, call); isLock {
					if op.acquire {
						held[op.recv] = true
					} else {
						delete(held, op.recv)
					}
					continue
				}
			}
			checkExpr(s.X)
		case *ast.DeferStmt:
			if op, isLock := classifyLockCall(pass, s.Call); isLock {
				if !op.acquire {
					// defer mu.Unlock(): the lock stays held for the
					// remainder of this block — keep it in the set.
					held[op.recv] = true
				}
				continue
			}
			checkExpr(s.Call)
		case *ast.BlockStmt:
			scanLockedRegions(pass, s, cloneHeld(held), check)
		case *ast.IfStmt:
			if s.Init != nil {
				checkExpr(s.Init)
			}
			checkExpr(s.Cond)
			scanLockedRegions(pass, s.Body, cloneHeld(held), check)
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				scanLockedRegions(pass, e, cloneHeld(held), check)
			case *ast.IfStmt:
				scanLockedRegions(pass, &ast.BlockStmt{List: []ast.Stmt{e}}, cloneHeld(held), check)
			}
		case *ast.ForStmt:
			scanLockedRegions(pass, s.Body, cloneHeld(held), check)
		case *ast.RangeStmt:
			scanLockedRegions(pass, s.Body, cloneHeld(held), check)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanLockedRegions(pass, &ast.BlockStmt{List: cc.Body}, cloneHeld(held), check)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanLockedRegions(pass, &ast.BlockStmt{List: cc.Body}, cloneHeld(held), check)
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					scanLockedRegions(pass, &ast.BlockStmt{List: cc.Body}, cloneHeld(held), check)
				}
			}
		case *ast.GoStmt:
			// The goroutine runs without this stack's locks.
		default:
			checkExpr(stmt)
		}
	}
}

func cloneHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}
