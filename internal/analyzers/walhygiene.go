package analyzers

import (
	"go/ast"
	"go/token"

	"hpcadvisor/internal/analyzers/analysis"
)

// walHygienePackages are the packages that own CRC-framed durable logs:
// storage (WAL segments, snapshot segments, the frame log) and collector
// (the sweep journal rides on storage.FrameLog).
var walHygienePackages = map[string]bool{
	"storage":   true,
	"collector": true,
}

// walRawWriters are the only functions allowed to write raw bytes to a
// *os.File in those packages: the single shared frame encoder and the two
// log-header writers, named "func" or "Type.method". Everything else must
// append through appendFrame so every durable byte is length-prefixed and
// CRC-framed; a raw Write anywhere else can interleave unframed bytes into
// a log and turn a clean torn-tail recovery into data loss. Each name must
// be declared in internal/storage (walhygiene_test.go checks), so a rename
// cannot leave a stale exemption behind.
var walRawWriters = map[string]bool{
	"appendFrame":               true, // the one frame encoder
	"SegmentStore.ensureActive": true, // writes a new WAL segment's header
	"FrameLog.reset":            true, // writes a fresh frame log header
}

// mmapSyscalls are the memory-mapping syscalls the mmap rule bans outside
// the storage mmap helper. A stray Mmap means a slice whose lifetime the
// snapshot pinning machinery doesn't know about; a stray Munmap can pull
// pages out from under a live Snapshot and turn reads into faults.
var mmapSyscalls = map[string]bool{
	"Mmap":     true,
	"Munmap":   true,
	"Msync":    true,
	"Mprotect": true,
	"Mlock":    true,
	"Munlock":  true,
}

// mmapExemptFuncs / mmapExemptTypes name the one sanctioned mapping site:
// storage's mapFile constructor and the mmapRegion methods that own the
// mapping's finalizer-managed lifetime.
var mmapExemptFuncs = map[string]bool{
	"mapFile": true,
}

var mmapExemptTypes = map[string]bool{
	"mmapRegion": true,
}

// WALHygiene enforces three orderings: in internal/storage and
// internal/collector, (1) any os.Rename must be preceded by an fsync in
// the same function (publish-after-durable; fsatomic does this for
// everyone else, these packages manage descriptors directly), and (2) raw
// writes to *os.File values happen only in the raw writers listed above,
// so every durable append is CRC-framed. Module-wide, (3)
// memory-mapping syscalls (Mmap/Munmap/Msync/...) appear only inside
// storage's mmap helper (mapFile and the mmapRegion methods), so every
// mapping's lifetime is finalizer-managed and pinned by the snapshots
// built over it.
var WALHygiene = &analysis.Analyzer{
	Name: "walhygiene",
	Doc: "in storage/collector: fsync before rename, and raw *os.File writes " +
		"only inside the CRC framing helpers (appendFrame, the log-header writers); " +
		"module-wide: mmap syscalls only inside the storage mmap helper " +
		"(mapFile, mmapRegion)",
	Run: runWALHygiene,
}

func runWALHygiene(pass *analysis.Pass) error {
	inStorage := analysis.LastSegment(pass.Pkg.Path) == "storage"
	inWALPkg := walHygienePackages[analysis.LastSegment(pass.Pkg.Path)]
	fileFields := map[string]bool{}
	if inWALPkg {
		for _, f := range pass.Pkg.Files {
			collectFileFields(f, fileFields)
		}
	}
	for _, f := range pass.Pkg.Files {
		imports := analysis.Imports(f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// The mmap rule applies everywhere, with the single exemption
			// of the storage mmap helper.
			if !(inStorage && mmapExempt(fd)) {
				checkMmapCalls(pass, fd, imports)
			}
			if !inWALPkg {
				continue
			}
			checkSyncBeforeRename(pass, fd, imports)
			if !walRawWriters[funcKey(fd)] {
				checkRawWrites(pass, fd, imports, fileFields)
			}
		}
	}
	return nil
}

func mmapExempt(fd *ast.FuncDecl) bool {
	if fd.Recv == nil {
		return mmapExemptFuncs[fd.Name.Name]
	}
	typeName, _ := receiverInfo(fd)
	return mmapExemptTypes[typeName]
}

// checkMmapCalls reports memory-mapping syscalls outside the storage mmap
// helper.
func checkMmapCalls(pass *analysis.Pass, fd *ast.FuncDecl, imports map[string]string) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkgPath, fn, ok := analysis.PkgCall(imports, call)
		if !ok || pkgPath != "syscall" || !mmapSyscalls[fn] {
			return true
		}
		pass.Reportf(call.Pos(),
			"syscall.%s outside the storage mmap helper; map files only through "+
				"mapFile/mmapRegion so mapping lifetimes stay finalizer-managed",
			fn)
		return true
	})
}

// collectFileFields records struct field names declared as *os.File, so a
// write through `s.f` is recognized as a raw file write.
func collectFileFields(f *ast.File, out map[string]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			star, ok := field.Type.(*ast.StarExpr)
			if !ok {
				continue
			}
			sel, ok := star.X.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "File" {
				continue
			}
			if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "os" {
				continue
			}
			for _, name := range field.Names {
				out[name.Name] = true
			}
		}
		return true
	})
}

// funcKey names a function declaration "func", or "Type.method" for a
// method.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	typeName, _ := receiverInfo(fd)
	return typeName + "." + fd.Name.Name
}

// checkSyncBeforeRename reports os.Rename calls with no fsync (a .Sync()
// call) earlier in the same function body.
func checkSyncBeforeRename(pass *analysis.Pass, fd *ast.FuncDecl, imports map[string]string) {
	var syncPositions []token.Pos
	var renames []*ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sync" && len(call.Args) == 0 {
			syncPositions = append(syncPositions, call.Pos())
		}
		if pkgPath, fn, ok := analysis.PkgCall(imports, call); ok && pkgPath == "os" && fn == "Rename" {
			renames = append(renames, call)
		}
		return true
	})
	for _, rename := range renames {
		synced := false
		for _, pos := range syncPositions {
			if pos < rename.Pos() {
				synced = true
				break
			}
		}
		if !synced {
			pass.Reportf(rename.Pos(),
				"os.Rename publishes bytes that were never fsynced in this function; "+
					"call Sync() on the staged file first (or use fsatomic.WriteFile)")
		}
	}
}

// checkRawWrites reports Write/WriteString/WriteAt calls on values that are
// (or hold) a *os.File, outside the framing helpers.
func checkRawWrites(pass *analysis.Pass, fd *ast.FuncDecl, imports map[string]string, fileFields map[string]bool) {
	// Locals bound to a fresh descriptor in this function.
	fileLocals := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		pkgPath, fn, ok := analysis.PkgCall(imports, call)
		if !ok || pkgPath != "os" {
			return true
		}
		switch fn {
		case "OpenFile", "Create", "CreateTemp", "Open":
			if id, ok := assign.Lhs[0].(*ast.Ident); ok {
				fileLocals[id.Name] = true
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Write", "WriteString", "WriteAt":
		default:
			return true
		}
		isFile := false
		switch x := sel.X.(type) {
		case *ast.Ident:
			isFile = fileLocals[x.Name]
		case *ast.SelectorExpr:
			isFile = fileFields[x.Sel.Name]
		}
		if !isFile {
			return true
		}
		pass.Reportf(call.Pos(),
			"raw %s on a *os.File outside the framing helpers; append through "+
				"appendFrame so every durable byte is CRC-framed",
			sel.Sel.Name)
		return true
	})
}
