package analyzers

import (
	"go/ast"
	"testing"

	"hpcadvisor/internal/analyzers/analysis"
)

// TestWALRawWritersAreDeclared keeps walhygiene's exemptions exact: every
// raw writer it allows, and the mmap helper it allows, must be declared in
// internal/storage. A renamed or deleted function otherwise leaves an
// exemption behind that the next function to take its name inherits.
func TestWALRawWritersAreDeclared(t *testing.T) {
	pkg, err := analysis.LoadDir("../storage", "hpcadvisor/internal/storage")
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]bool{}
	types := map[string]bool{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				funcs[funcKey(fd)] = true
				if fd.Recv != nil {
					typeName, _ := receiverInfo(fd)
					types[typeName] = true
				}
			}
		}
	}
	for name := range walRawWriters {
		if !funcs[name] {
			t.Errorf("walRawWriters allows %s, which internal/storage does not declare", name)
		}
	}
	for name := range mmapExemptFuncs {
		if !funcs[name] {
			t.Errorf("mmapExemptFuncs allows %s, which internal/storage does not declare", name)
		}
	}
	for name := range mmapExemptTypes {
		if !types[name] {
			t.Errorf("mmapExemptTypes allows %s, which has no methods in internal/storage", name)
		}
	}
}
