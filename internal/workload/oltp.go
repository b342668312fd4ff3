package workload

import (
	"piranha/internal/cache"
	"piranha/internal/cpu"
	"piranha/internal/sim"
)

// OLTPConfig parameterizes the TPC-B-style transaction workload (§3.1:
// 40 branches, dedicated server processes, 8 per CPU, log writes hidden
// by multiprogramming).
type OLTPConfig struct {
	Branches int // 40
	Tellers  int // 400
	// InstrPerTx is the per-transaction path length (database + kernel).
	// Real Oracle TPC-B paths run ~10x longer; the model transaction is
	// scaled down uniformly, which preserves every ratio the paper
	// reports since all configurations run the same stream.
	InstrPerTx int
	// KernelFrac is the fraction of the path executed in the kernel
	// (~25% per the paper).
	KernelFrac float64
	// BlockGets is the number of buffer-cache block accesses per
	// transaction, each with its buffer-header/latch metadata work.
	BlockGets int
	// HotDataFrac is the fraction of gets that hit the skewed hot
	// working set (vs uniformly cold blocks).
	HotDataFrac float64
	// ProcsPerCPU is the server-process multiprogramming level.
	ProcsPerCPU int
	// LogIOLatency is the commit's log-write latency (group commit to
	// a controller with NV cache).
	LogIOLatency sim.Time
	// CodeFuncs/KernFuncs are function counts for the code walkers.
	CodeFuncs, KernFuncs int
	// CodeTheta is the Zipf skew of function popularity.
	CodeTheta float64
	// ShareTheta is the skew of the shared communication structures
	// (buffer headers, latches, lock table, kernel data): higher means
	// hotter lines and more cross-CPU invalidation traffic.
	ShareTheta float64
	// DataTheta is the skew of the hot block working set.
	DataTheta float64
	// UseWriteHints enables wh64 on full-line history inserts.
	UseWriteHints bool
}

// DefaultOLTP returns the calibrated TPC-B-like configuration.
func DefaultOLTP() OLTPConfig {
	return OLTPConfig{
		Branches:      40,
		Tellers:       400,
		InstrPerTx:    16000,
		KernelFrac:    0.25,
		BlockGets:     60,
		HotDataFrac:   0.85,
		ProcsPerCPU:   8,
		LogIOLatency:  150 * sim.Microsecond,
		CodeFuncs:     128,
		KernFuncs:     64,
		CodeTheta:     0.95,
		ShareTheta:    0.90,
		DataTheta:     0.75,
		UseWriteHints: true,
	}
}

// TPCCLike returns a heavier transaction mix modeled after TPC-C
// (longer paths, more block gets, larger hot set) used for the §4
// sensitivity result (P8 > 3x OOO on TPC-C).
func TPCCLike() OLTPConfig {
	c := DefaultOLTP()
	c.InstrPerTx = 26000
	c.BlockGets = 84
	c.HotDataFrac = 0.75
	c.DataTheta = 0.65
	return c
}

// OLTP builds per-process op streams over a shared layout.
type OLTP struct {
	Cfg OLTPConfig
	Lay Layout
	// nProcs total across the machine (for PGA slicing).
	nProcs  int
	spawned int
	// hot block subset of SGAData.
	hotBlocks Region
	// Shared Zipf samplers. A sampler's Next reads only fields frozen
	// by NewZipf, so one instance serves every process; building them
	// once here instead of per process matters at scale-out sizes —
	// NewZipf is O(region lines), and a 1024-node machine constructs
	// thousands of server processes.
	metaZipf, hotZipf, kbssZipf, lockZipf *sim.Zipf
	// bufs recycles the processes' op buffers.
	bufs opBuffers
}

// NewOLTP prepares the workload for nProcs server processes.
func NewOLTP(cfg OLTPConfig, lay Layout, nProcs int) *OLTP {
	hot := Region{Base: lay.SGAData.Base, Bytes: 1 << 20} // 1 MB hot block set
	return &OLTP{
		Cfg: cfg, Lay: lay, nProcs: nProcs, hotBlocks: hot,
		metaZipf: sim.NewZipf(int(lay.SGAMeta.Lines()/64), cfg.ShareTheta),
		hotZipf:  sim.NewZipf(int(hot.Lines()), cfg.DataTheta),
		kbssZipf: sim.NewZipf(int(lay.KernBSS.Lines()), cfg.ShareTheta),
		lockZipf: sim.NewZipf(int(lay.LockTab.Lines()), cfg.ShareTheta),
	}
}

// NewProcess returns the op stream for the next server process.
func (o *OLTP) NewProcess() *OLTPProc {
	p := o.Process(o.spawned)
	o.spawned++
	return p
}

// Process builds the id'th server process's op stream without touching
// shared workload state: everything it reads (layout, config, hot-set
// bounds, the shared Zipf samplers) is immutable after NewOLTP, so
// distinct ids may be constructed concurrently. (Running the streams
// is serial: they share the generator's op buffers.)
// Construction is a pure function of id: Process(i) for i = 0..n-1 in
// any order yields exactly the processes a serial NewProcess loop would.
func (o *OLTP) Process(id int) *OLTPProc {
	p := &OLTPProc{
		o:        o,
		id:       id,
		pga:      o.Lay.PGASlice(id, o.nProcs),
		code:     newCodeWalker(o.Lay.DBCode, o.Cfg.CodeFuncs, 12, o.Cfg.CodeTheta),
		kern:     newCodeWalker(o.Lay.OSCode, o.Cfg.KernFuncs, 12, o.Cfg.CodeTheta),
		metaZipf: o.metaZipf,
		hotZipf:  o.hotZipf,
		kbssZipf: o.kbssZipf,
		lockZipf: o.lockZipf,
		histCur:  uint64(id) * (o.Lay.History.Lines() / uint64(maxI(o.nProcs, 1))),
	}
	// The PGA hot set is the first 32 KB of the process's slice.
	p.pgaHot = Region{Base: p.pga.Base, Bytes: 32 << 10}
	return p
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// OLTPProc is one dedicated server process's op stream.
type OLTPProc struct {
	o      *OLTP
	id     int
	pga    Region
	pgaHot Region

	code, kern *codeWalker
	metaZipf   *sim.Zipf
	hotZipf    *sim.Zipf
	kbssZipf   *sim.Zipf
	lockZipf   *sim.Zipf

	histCur uint64
	logCur  uint64

	queue opQueue
	// Tx counts generated transactions.
	Tx uint64
}

// Next implements kernel.Stream.
func (p *OLTPProc) Next(r *sim.RNG) cpu.Op { return p.queue.next(&p.o.bufs, r, p.generate) }

// load/store/hint helpers.
func ld(a cache.Addr, dep bool) cpu.Op { return cpu.Op{Kind: cpu.KLoad, Addr: a, Dep: dep} }
func st(a cache.Addr) cpu.Op           { return cpu.Op{Kind: cpu.KStore, Addr: a} }
func hint(a cache.Addr) cpu.Op         { return cpu.Op{Kind: cpu.KStoreHint, Addr: a} }

// generate emits one complete transaction.
func (p *OLTPProc) generate(r *sim.RNG, ops []cpu.Op) []cpu.Op {
	cfg := p.o.Cfg
	lay := p.o.Lay
	dbInstr := int(float64(cfg.InstrPerTx) * (1 - cfg.KernelFrac))
	kernInstr := cfg.InstrPerTx - dbInstr
	gets := cfg.BlockGets
	// Spread code between the block gets; kernel work in syscalls.
	codeChunk := dbInstr / (gets + 4)
	kernChunk := kernInstr / 6

	// metaGet emits the buffer-header lookup protecting a block access:
	// a hash-chain walk (dependent loads) and a latch acquire/release.
	metaGet := func() {
		h := lay.SGAMeta.LineAt(uint64(p.metaZipf.Next(r)) * 64)
		ops = append(ops, ld(h, false), ld(h+cache.LineBytes, true))
		// Latch acquire/release dirties the header line (pin counts,
		// LRU links) on about half the gets.
		if r.Bool(0.5) {
			ops = append(ops, st(h))
		}
		// Buffer-pool LRU/free-list latches: a handful of extremely
		// hot global lines every get has a chance of touching — the
		// classic OLTP communication hot spot.
		if r.Bool(0.6) {
			g := lay.SGAMeta.LineAt(uint64(r.Intn(8)))
			ops = append(ops, ld(g, false), st(g))
		}
	}
	// lockOp touches the lock-manager hash table.
	lockOp := func() {
		l := lay.LockTab.LineAt(uint64(p.lockZipf.Next(r)))
		ops = append(ops, ld(l, false), st(l))
	}
	// syscall emits a kernel code chunk plus shared kernel data.
	syscall := func() {
		ops = p.kern.emit(ops, r, kernChunk)
		for i := 0; i < 3; i++ {
			k := lay.KernBSS.LineAt(uint64(p.kbssZipf.Next(r)))
			ops = append(ops, ld(k, i > 0))
		}
		if r.Bool(0.4) {
			k := lay.KernBSS.LineAt(uint64(p.kbssZipf.Next(r)))
			ops = append(ops, st(k))
		}
	}
	// pgaWork touches the process's private sort/work area.
	pgaWork := func(n int) {
		for i := 0; i < n; i++ {
			ops = append(ops, ld(p.pgaHot.RandomLine(r), false))
		}
		ops = append(ops, st(p.pgaHot.RandomLine(r)))
	}

	// --- begin transaction: parse, lock, kernel entry ---
	ops = p.code.emit(ops, r, codeChunk*2)
	lockOp()
	lockOp()
	syscall()
	pgaWork(3)

	// --- account via B-tree: root -> internal -> leaf -> block ---
	ops = p.code.emit(ops, r, codeChunk)
	root := lay.BTreeI.LineAt(0)
	internal := lay.BTreeI.RandomLine(r)
	leaf := lay.BTreeL.RandomLine(r)
	ops = append(ops, ld(root, false), ld(internal, true), ld(leaf, true))
	metaGet()
	acct := lay.SGAData.RandomLine(r) // 512 MB: effectively always cold
	ops = append(ops, ld(acct, true), st(acct))

	// --- remaining block gets: hot working set + occasional cold ---
	for g := 0; g < gets-6; g++ {
		ops = p.code.emit(ops, r, codeChunk)
		metaGet()
		var b cache.Addr
		if r.Bool(cfg.HotDataFrac) {
			b = p.o.hotBlocks.LineAt(uint64(p.hotZipf.Next(r)))
		} else {
			b = lay.SGAData.RandomLine(r)
		}
		ops = append(ops, ld(b, true))
		// OLTP blocks are updated in place about half the time
		// (index maintenance, row updates, undo) — the migratory
		// sharing pattern that drives L2 forwarding on a CMP.
		if r.Bool(0.45) {
			ops = append(ops, st(b))
		}
		if g%5 == 4 {
			pgaWork(2)
		}
		if g%9 == 8 {
			syscall() // buffer reads, IPC, timer ticks
		}
	}

	// --- teller update ---
	ops = p.code.emit(ops, r, codeChunk)
	metaGet()
	t := lay.Teller.LineAt(uint64(r.Intn(cfg.Tellers)))
	ops = append(ops, ld(t, false), st(t))

	// --- branch update: the 40-row hot table every transaction hits ---
	ops = p.code.emit(ops, r, codeChunk)
	metaGet()
	b := lay.Branch.LineAt(uint64(r.Intn(cfg.Branches)))
	ops = append(ops, ld(b, false), st(b))

	// --- history insert: append-only, full-line writes ---
	ops = p.code.emit(ops, r, codeChunk)
	h := lay.History.LineAt(p.histCur)
	p.histCur++
	if cfg.UseWriteHints {
		ops = append(ops, hint(h), st(h))
	} else {
		ops = append(ops, st(h))
	}

	// --- redo log: build the record in the shared ring, commit ---
	ops = p.code.emit(ops, r, codeChunk)
	slot := (uint64(p.id) + p.logCur*uint64(p.o.nProcs)) % lay.Log.Lines()
	p.logCur++
	for i := uint64(0); i < 2; i++ {
		ops = append(ops, st(lay.Log.LineAt(slot+i)))
	}
	syscall()
	syscall() // commit path: log syscall + scheduler reentry

	// --- commit: log write I/O, transaction boundary ---
	ops = append(ops,
		cpu.Op{Kind: cpu.KIO, IODelay: cfg.LogIOLatency},
		cpu.Op{Kind: cpu.KTxMark},
	)
	p.Tx++
	return ops
}
