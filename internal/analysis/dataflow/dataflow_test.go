package dataflow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"scord/internal/analysis/framework"
)

// The tests typecheck a miniature gpu/mem API in memory so the
// interpreter can be exercised without invoking the go toolchain.

const memStub = `package mem

type Addr int
`

const gpuStub = `package gpu

import "x/internal/mem"

type Scope int

const (
	ScopeBlock Scope = iota
	ScopeDevice
)

type Ctx struct {
	Block, Warp, Blocks, Warps, WarpSize int
}

func (c *Ctx) Load(a mem.Addr) int64                                   { return 0 }
func (c *Ctx) LoadV(a mem.Addr) int64                                  { return 0 }
func (c *Ctx) LoadVec(a []mem.Addr, volatile bool) []int64             { return nil }
func (c *Ctx) Store(a mem.Addr, v int64)                               {}
func (c *Ctx) StoreV(a mem.Addr, v int64)                              {}
func (c *Ctx) StoreVec(a []mem.Addr, v []int64, volatile bool)         {}
func (c *Ctx) AtomicAdd(a mem.Addr, v int64, s Scope) int64            { return 0 }
func (c *Ctx) AtomicMax(a mem.Addr, v int64, s Scope) int64            { return 0 }
func (c *Ctx) AtomicCAS(a mem.Addr, cmp, v int64, s Scope) int64       { return 0 }
func (c *Ctx) AtomicExch(a mem.Addr, v int64, s Scope) int64           { return 0 }
func (c *Ctx) AtomicAddVec(a []mem.Addr, v int64, s Scope)             {}
func (c *Ctx) AtomicMaxVec(a []mem.Addr, v int64, s Scope)             {}
func (c *Ctx) AtomicReadVec(a []mem.Addr, s Scope) []int64             { return nil }
func (c *Ctx) Acquire(a mem.Addr, s Scope) int64                       { return 0 }
func (c *Ctx) Release(a mem.Addr, v int64, s Scope)                    {}
func (c *Ctx) Fence(s Scope)                                           {}
func (c *Ctx) SyncThreads()                                            {}
func (c *Ctx) Work(n int)                                              {}
func (c *Ctx) Seq(base mem.Addr, n int) []mem.Addr                     { return nil }
func (c *Ctx) Site(s string) *Ctx                                      { return c }
func (c *Ctx) AtLane(l int) *Ctx                                       { return c }
func (c *Ctx) Converge()                                               {}
func (c *Ctx) GlobalWarp() int                                         { return 0 }

type Kernel func(c *Ctx)

type Device struct{}

func (d *Device) Alloc(name string, n int) mem.Addr                    { return 0 }
func (d *Device) Launch(name string, blocks, tpb int, k Kernel)        {}
`

type stubImporter struct {
	pkgs map[string]*types.Package
	std  types.Importer
}

func (si *stubImporter) Import(path string) (*types.Package, error) {
	if p, ok := si.pkgs[path]; ok {
		return p, nil
	}
	return si.std.Import(path)
}

// buildWorld typechecks mem, gpu and a kernel package from source and
// wraps them as a dataflow World.
func buildWorld(t *testing.T, kernSrc string) (*World, *framework.Package) {
	t.Helper()
	fset := token.NewFileSet()
	si := &stubImporter{pkgs: map[string]*types.Package{}, std: importer.Default()}

	check := func(path, src string) *framework.Package {
		file, err := parser.ParseFile(fset, path+"/src.go", src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: si}
		tpkg, err := conf.Check(path, fset, []*ast.File{file}, info)
		if err != nil {
			t.Fatalf("typecheck %s: %v", path, err)
		}
		si.pkgs[path] = tpkg
		return &framework.Package{
			PkgPath: path,
			Fset:    fset,
			Files:   []*ast.File{file},
			Types:   tpkg,
			Info:    info,
		}
	}

	mem := check("x/internal/mem", memStub)
	gpu := check("x/internal/gpu", gpuStub)
	kern := check("x/kern", kernSrc)
	w := NewWorld(mem, gpu, kern)
	return w, kern
}

// kernelFunc finds a declared function by name and wraps it for Run.
func kernelFunc(t *testing.T, pkg *framework.Package, name string) *FuncVal {
	t.Helper()
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return declFunc(pkg, fd)
			}
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

func TestAffinityAndProvenance(t *testing.T) {
	w, kern := buildWorld(t, `package kern

import (
	"x/internal/gpu"
	"x/internal/mem"
)

func K(c *gpu.Ctx, a mem.Addr) {
	b0 := a + mem.Addr(c.Block*4)
	s := b0 + mem.Addr(c.Warp)
	g := a + mem.Addr(c.GlobalWarp())
	c.Store(b0, 1)
	c.Store(s, 2)
	c.Store(g, 3)
}
`)
	res := Run(w, kernelFunc(t, kern, "K"), nil)
	if len(res.Trace) != 3 {
		t.Fatalf("trace = %d ops, want 3", len(res.Trace))
	}
	b0, s, g := res.Trace[0].Addr, res.Trace[1].Addr, res.Trace[2].Addr
	if b0.Deps != DepBlock || !b0.BlockVarying() || b0.CrossDerived() {
		t.Errorf("b0: Deps=%v, want block-derived only", b0.Deps)
	}
	if s.Deps != DepBlock|DepWarp || s.CrossDerived() {
		t.Errorf("s: Deps=%v, want block and warp deps", s.Deps)
	}
	if !g.CrossDerived() || !g.BlockVarying() {
		t.Errorf("g: Deps=%v, want cross-block provenance", g.Deps)
	}
	for i, op := range res.Trace {
		if len(op.Addr.Bases) != 1 || op.Addr.Bases[0][0] != '$' {
			t.Errorf("op %d: bases=%v, want the $a parameter base", i, op.Addr.Bases)
		}
	}
}

func TestLoopWideningAndBarrierPhases(t *testing.T) {
	w, kern := buildWorld(t, `package kern

import (
	"x/internal/gpu"
	"x/internal/mem"
)

func K(c *gpu.Ctx, a mem.Addr) {
	c.Store(a, 1)
	c.SyncThreads()
	for i := 0; i < 4; i++ {
		c.Store(a+mem.Addr(i), 2)
	}
	c.SyncThreads()
	c.Store(a, 3)
}
`)
	res := Run(w, kernelFunc(t, kern, "K"), nil)
	// Barriers record nothing, and the loop body is interpreted twice:
	// store, store(×2 in loop), store.
	var loopDeps []Dep
	for _, op := range res.Trace {
		if op.Kind == OpStore {
			loopDeps = append(loopDeps, op.Addr.Deps)
		}
	}
	if len(res.Trace) != 4 || len(loopDeps) != 4 {
		t.Fatalf("trace = %d ops with %d stores, want 4 stores", len(res.Trace), len(loopDeps))
	}
	if loopDeps[1]&DepLoop != 0 {
		t.Errorf("first loop pass addr deps = %v, want no DepLoop before widening", loopDeps[1])
	}
	if loopDeps[2]&DepLoop == 0 {
		t.Errorf("second loop pass addr deps = %v, want DepLoop widening", loopDeps[2])
	}
}

func TestFieldJoinResolvesAllocs(t *testing.T) {
	w, kern := buildWorld(t, `package kern

import (
	"x/internal/gpu"
	"x/internal/mem"
)

type arena struct {
	data mem.Addr
	flag mem.Addr
}

func setup(d *gpu.Device) arena {
	return arena{
		data: d.Alloc("m.data", 32),
		flag: d.Alloc("m.flag", 1),
	}
}

func K(c *gpu.Ctx, a arena) {
	c.Store(a.data, 1)
	c.AtomicAdd(a.flag, 1, gpu.ScopeDevice)
}
`)
	res := Run(w, kernelFunc(t, kern, "K"), nil)
	if len(res.Trace) != 2 {
		t.Fatalf("trace = %d ops, want 2", len(res.Trace))
	}
	if b := res.Trace[0].Addr.Bases; len(b) != 1 || b[0] != "m.data" {
		t.Errorf("data bases = %v, want [m.data]", b)
	}
	if b := res.Trace[1].Addr.Bases; len(b) != 1 || b[0] != "m.flag" {
		t.Errorf("flag bases = %v, want [m.flag]", b)
	}
}

func TestHelperInliningAndDivergence(t *testing.T) {
	w, kern := buildWorld(t, `package kern

import (
	"x/internal/gpu"
	"x/internal/mem"
)

func bump(c *gpu.Ctx, a mem.Addr) {
	c.AtomicAdd(a, 1, gpu.ScopeBlock)
}

func K(c *gpu.Ctx, a mem.Addr) {
	bump(c, a)
	c.AtLane(0).Store(a, 1)
	c.AtLane(1).Store(a+1, 2)
	c.Converge()
	c.Store(a, 3)
}
`)
	res := Run(w, kernelFunc(t, kern, "K"), nil)
	var atomics, stores []*Op
	for _, op := range res.Trace {
		switch op.Kind {
		case OpAtomic:
			atomics = append(atomics, op)
		case OpStore:
			stores = append(stores, op)
		}
	}
	if len(atomics) != 1 || atomics[0].Method != "AtomicAdd" || len(atomics[0].Addr.Bases) != 1 {
		t.Fatalf("inlined helper atomics = %+v, want one AtomicAdd on the $a base", atomics)
	}
	// Diverged and converged stores alike are recorded, in order, on
	// their own addresses.
	if len(stores) != 3 {
		t.Fatalf("stores = %d, want 3", len(stores))
	}
	for i, want := range []string{"a", "a + 1", "a"} {
		if got := types.ExprString(stores[i].AddrExpr); got != want {
			t.Errorf("store %d addr = %s, want %s", i, got, want)
		}
	}
}
