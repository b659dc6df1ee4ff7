package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PayloadBox pins PR 6's "boxing only at Value()" invariant: in the
// per-event packages (sim, mac, core, sched) a sim.Payload travels as a
// value struct of typed operands, and the dynamic Go value it stands for is
// reconstructed exactly once, post-run, by Payload.Value. The analyzer
// flags, inside those packages:
//
//   - calls to Payload.Value (or TraceEvent.Value) outside package sim and
//     outside registered boxers — engines, algorithms and schedulers must
//     read the operand fields, never re-box;
//   - conversions of a sim.Payload value into an interface (fmt verbs,
//     any(...) / interface assignments) outside package sim — the payload
//     must stay unboxed until render.
//
// Function literals passed to sim.RegisterPayloadKind (and same-package
// functions registered by name) are boxers: re-boxing is their job, so the
// checks are suspended inside them. //lint:payloadbox <reason> covers the
// rest.
var PayloadBox = &Analyzer{
	Name: "payloadbox",
	Doc:  "flags payload boxing (Value, interface conversion) outside registered boxers and trace render",
	Run:  runPayloadBox,
}

func runPayloadBox(pass *Pass) error {
	path := pass.Pkg.Path()
	if !isHotPkg(path) {
		return nil
	}
	inSim := isSimPkg(path)
	exempt := boxerRanges(pass)
	exemptAt := func(pos ast.Node) bool {
		for _, r := range exempt {
			if pos.Pos() >= r.from && pos.Pos() < r.to {
				return true
			}
		}
		return false
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && exemptAt(lit) {
				return false // inside a registered boxer
			}
			switch n := n.(type) {
			case *ast.FuncDecl:
				if exemptAt(n) {
					return false // a boxer registered by name
				}
			case *ast.CallExpr:
				checkPayloadCall(pass, n, inSim)
			case *ast.AssignStmt:
				if !inSim {
					for i, rhs := range n.Rhs {
						if len(n.Lhs) == len(n.Rhs) {
							checkPayloadToInterface(pass, rhs, pass.TypesInfo.TypeOf(n.Lhs[i]))
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// boxerRanges returns the source ranges of registered boxers: function
// literals passed directly to sim.RegisterPayloadKind, and the bodies of
// same-package functions whose name is passed to it.
func boxerRanges(pass *Pass) []posRange {
	var ranges []posRange
	var namedBoxers []types.Object
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			if !isSimFunc(pass, call.Fun, "RegisterPayloadKind") {
				return true
			}
			switch arg := ast.Unparen(call.Args[0]).(type) {
			case *ast.FuncLit:
				ranges = append(ranges, posRange{arg.Pos(), arg.End()})
			case *ast.Ident:
				if obj := pass.TypesInfo.ObjectOf(arg); obj != nil {
					namedBoxers = append(namedBoxers, obj)
				}
			}
			return true
		})
	}
	if len(namedBoxers) > 0 {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.ObjectOf(fd.Name)
				for _, b := range namedBoxers {
					if obj == b {
						ranges = append(ranges, posRange{fd.Pos(), fd.End()})
					}
				}
			}
		}
	}
	return ranges
}

type posRange struct{ from, to token.Pos }

func checkPayloadCall(pass *Pass, call *ast.CallExpr, inSim bool) {
	info := pass.TypesInfo
	// Conversion any(p) / iface(p).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if !inSim && isInterfaceType(tv.Type) && len(call.Args) == 1 {
			checkPayloadToInterface(pass, call.Args[0], tv.Type)
		}
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			if fn, ok := s.Obj().(*types.Func); ok && fn.Name() == "Value" {
				recv := s.Recv()
				if simNamed(recv, "Payload") || simNamed(recv, "TraceEvent") {
					if !inSim {
						pass.Reportf(call.Pos(), "%s.Value re-boxes the payload on the event path; read the operand fields, or move this to a post-run consumer", typeBase(recv))
					}
					return
				}
			}
		}
	}
	// Payload values flowing into interface parameters (fmt verbs etc.).
	if inSim {
		return
	}
	sig, ok := typeAsSignature(info.TypeOf(call.Fun))
	if !ok {
		return
	}
	for i, arg := range call.Args {
		if pt := paramType(sig, i, call); pt != nil {
			checkPayloadToInterface(pass, arg, pt)
		}
	}
}

// checkPayloadToInterface flags a sim.Payload value converted to an
// interface type.
func checkPayloadToInterface(pass *Pass, expr ast.Expr, target types.Type) {
	if target == nil || !isInterfaceType(target) {
		return
	}
	t := pass.TypesInfo.TypeOf(expr)
	if !simNamed(t, "Payload") {
		return
	}
	if _, isPtr := t.(*types.Pointer); isPtr {
		return // a *Payload in an interface shares, it does not box the struct
	}
	pass.Reportf(expr.Pos(), "sim.Payload converted to interface boxes the 32-byte struct; payloads stay unboxed until trace render")
}

// isSimFunc reports whether fun resolves to the named package-level function
// of the sim package.
func isSimFunc(pass *Pass, fun ast.Expr, name string) bool {
	var obj types.Object
	switch f := ast.Unparen(fun).(type) {
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[f.Sel]
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[f]
	default:
		return false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	return isSimPkg(fn.Pkg().Path())
}

// typeBase returns the bare name of a (possibly pointer) named type.
func typeBase(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
