package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CheckpointFieldsAnalyzer is the round-trip exhaustiveness check for
// the repo's persisted state: every exported field of a
// checkpoint/WAL-encoded struct must be referenced in both the encode
// and the decode path. Adding a field to checkpointState and
// populating it in saveCheckpoint while forgetting loadCheckpoint
// compiles, replays, and silently loses state on every resume — the
// exact bug class the v2→v3 checkpoint migration was built to avoid.
//
// The audited codecs are declared in checkpointCodecs. Reference
// means any identifier resolving to the field object — a selector
// (cs.Cursor) or a keyed composite-literal key (Cursor: ...) — inside
// the named function's body. Matching is by object identity, so a
// same-named field of an anonymous local struct (loadCheckpoint's
// base-chain peek) does not count.
var CheckpointFieldsAnalyzer = &Analyzer{
	Name: "checkpointfields",
	Doc:  "persisted-struct fields must appear in both encode and decode paths",
	Run:  runCheckpointFields,
}

// checkpointCodec names one persisted struct and its codec functions.
type checkpointCodec struct {
	pkgSuffix string // package path suffix the codec lives in
	structNm  string
	encodeFn  string
	decodeFn  string
}

// checkpointCodecs is the audit table. New persisted formats get a
// row here as part of the PR that introduces them.
var checkpointCodecs = []checkpointCodec{
	{"internal/sim", "checkpointState", "saveCheckpoint", "loadCheckpoint"},
	{"internal/sim", "nsHeader", "appendNSHeader", "parseNSHeader"},
	{"internal/sim", "nsRecord", "appendNSRecord", "decodeNSRecord"},
	{"internal/daemon", "Event", "AppendEncode", "ParseEvent"},
	{"internal/trace", "SnapshotEntry", "WriteSnapshot", "parseSnapshotLine"},
}

func runCheckpointFields(pass *Pass) {
	for _, codec := range checkpointCodecs {
		if pathHasSuffix(pass.Path, codec.pkgSuffix) {
			checkCodec(pass, codec)
		}
	}
}

func checkCodec(pass *Pass, codec checkpointCodec) {
	st, pos := lookupStruct(pass, codec.structNm)
	if st == nil {
		return
	}
	encode := findFuncBody(pass, codec.encodeFn)
	decode := findFuncBody(pass, codec.decodeFn)
	if encode == nil || decode == nil {
		// Codec half missing entirely: renamed without updating the
		// table, or the struct predates its codec. Either way the
		// audit cannot run, which must not pass silently.
		pass.Reportf(pos, "checkpoint codec for %s not found (want functions %s and %s): update checkpointCodecs in internal/lint", codec.structNm, codec.encodeFn, codec.decodeFn)
		return
	}
	encRefs := fieldRefs(pass, encode)
	decRefs := fieldRefs(pass, decode)
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() {
			continue
		}
		inEnc, inDec := encRefs[f], decRefs[f]
		switch {
		case !inEnc && !inDec:
			pass.Reportf(pos, "field %s.%s appears in neither %s nor %s: dead weight or missed round-trip", codec.structNm, f.Name(), codec.encodeFn, codec.decodeFn)
		case !inEnc:
			pass.Reportf(pos, "field %s.%s is read by %s but never written by %s: it round-trips as a zero value", codec.structNm, f.Name(), codec.decodeFn, codec.encodeFn)
		case !inDec:
			pass.Reportf(pos, "field %s.%s is written by %s but never read by %s: state is silently dropped on resume", codec.structNm, f.Name(), codec.encodeFn, codec.decodeFn)
		}
	}
}

// lookupStruct finds a struct type by name in the package scope.
func lookupStruct(pass *Pass, name string) (*types.Struct, token.Pos) {
	obj := pass.Pkg.Scope().Lookup(name)
	if obj == nil {
		return nil, 0
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return nil, 0
	}
	return st, obj.Pos()
}

// findFuncBody locates a function or method body by bare name.
func findFuncBody(pass *Pass, name string) *ast.BlockStmt {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name && fd.Body != nil {
				return fd.Body
			}
		}
	}
	return nil
}

// fieldRefs collects every struct-field object referenced in body —
// selector uses and keyed composite-literal keys both resolve through
// Info.Uses to the field's *types.Var.
func fieldRefs(pass *Pass, body *ast.BlockStmt) map[*types.Var]bool {
	refs := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := pass.Info.Uses[id].(*types.Var); ok && v.IsField() {
			refs[v] = true
		}
		return true
	})
	return refs
}
