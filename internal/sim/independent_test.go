package sim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestReferenceIndependent keeps the oracle a transcription of the rules
// rather than a second caller of the engine: reference_test.go may use no
// name that engine.go, engine_event.go or eventq.go declares — types,
// functions, constants, variables, Engine's methods and fields — except
// Result and DefaultMaxMeshCycles, the part of the model it shares. (It is
// an external test because package sim's token type collides with go/token.)
func TestReferenceIndependent(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(name string) *ast.File {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	engine := map[string]bool{}
	for _, name := range []string{"engine.go", "engine_event.go", "eventq.go"} {
		for _, d := range parse(name).Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					engine[d.Name.Name] = true
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.Name == "Engine" {
					engine[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						engine[s.Name.Name] = true
						if st, ok := s.Type.(*ast.StructType); ok && s.Name.Name == "Engine" {
							for _, f := range st.Fields.List {
								for _, n := range f.Names {
									engine[n.Name] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							engine[n.Name] = true
						}
					}
				}
			}
		}
	}
	for _, want := range []string{"Engine", "Run", "tokenArrives", "nodes", "serialEv", "timeQ", "tokTail", "preemptEvery"} {
		if !engine[want] {
			t.Fatalf("collected engine names miss %s", want)
		}
	}
	delete(engine, "Result")
	delete(engine, "DefaultMaxMeshCycles")
	ast.Inspect(parse("reference_test.go"), func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && engine[id.Name] {
			t.Errorf("%s: the oracle uses the engine's %s", fset.Position(id.Pos()), id.Name)
		}
		return true
	})
}
