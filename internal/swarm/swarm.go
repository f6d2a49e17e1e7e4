// Package swarm implements a BitTorrent-like file-sharing swarm, the third
// satiable system the paper analyzes. It exists to reproduce two of the
// paper's qualitative claims:
//
//   - "Despite the attack being possible in BitTorrent, it seems likely to
//     do significantly less damage" — satiating leechers turns them into
//     seeds (or removes net downloaders), which is "often actually a net
//     benefit to the torrent".
//
//   - "The attacker could try and target leechers who have rare pieces to
//     artificially create a 'last pieces problem,' but BitTorrent's rarest
//     first policy does a good job of resolving this problem."
//
// The model is tick-based. Leechers maintain a bounded peer set, unchoke
// their top reciprocators plus one optimistic unchoke, and transfer one
// piece per unchoked interested peer per tick. Receivers choose pieces by a
// pluggable selection policy (random, random-first + rarest-first). A
// simplified endgame mode lets nearly finished leechers pull their last
// pieces from any peer-set member holding them.
//
// # Performance architecture
//
// The hot loop is built for million-leecher populations around three
// mechanically independent optimizations, each pinned bit-identical to the
// straightforward implementation by the parity and golden suites:
//
//   - Incremental rarity. Every node's local piece-rarity view (how many of
//     its non-departed neighbors hold each piece) and the global per-piece
//     holder count are maintained as counters updated on piece-gain and
//     departure deltas — O(degree) per transferred piece — instead of being
//     rescanned from neighbor bitsets every tick (O(degree·pieces) per
//     receiver per tick). See gainPiece, departNode, and the tick-tagged
//     snapshot in snapFor that reproduces the rescan's lazy per-tick
//     semantics exactly.
//
//   - Struct-of-arrays agent layout. Piece bitsets are raw words in one
//     contiguous arena (no per-node set headers to chase on random probes),
//     the peer graph is flattened into int32 adjacency and reverse-position
//     arrays indexed by degree prefix sums, all per-node ragged state
//     (window reciprocation counts, interested lists, unchoke sets) lives
//     in packed backing arrays, and the reciprocation ranking uses an
//     allocation-free bounded sort — so the score and transfer passes are
//     linear scans over packed memory with no per-node heap objects.
//
//   - Sharded pure-read passes. Unchoke scoring, the endgame and lifecycle
//     candidate scans, and the initial rarity build are pure reads of swarm
//     state and run on sim.ParallelFor for large populations; every
//     RNG-consuming or state-mutating pass stays sequential in node order,
//     so results are bit-identical for any worker count.
package swarm

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"

	"lotuseater/internal/attack"
	"lotuseater/internal/graph"
	"lotuseater/internal/population"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
)

// Selection is a piece-selection policy.
type Selection int

const (
	// SelectRandom picks a uniformly random needed piece — the strawman
	// policy with no rarity awareness.
	SelectRandom Selection = iota + 1
	// SelectRarestFirst picks the needed piece with the fewest holders in
	// the receiver's peer set, after a short random-first bootstrap.
	SelectRarestFirst
)

// String returns the policy name.
func (s Selection) String() string {
	switch s {
	case SelectRandom:
		return "random"
	case SelectRarestFirst:
		return "rarest-first"
	default:
		return fmt.Sprintf("swarm.Selection(%d)", int(s))
	}
}

// Config parameterizes a swarm run.
type Config struct {
	// Leechers join at tick 0 with no pieces.
	Leechers int
	// Pieces is the file size in pieces.
	Pieces int
	// UploadSlots is the number of concurrent unchokes per node (BitTorrent
	// default 4), including the optimistic slot.
	UploadSlots int
	// RotateInterval is how many ticks between unchoke recomputations.
	RotateInterval int
	// PeerSetSize is each node's approximate neighbor count.
	PeerSetSize int
	// Ticks is the horizon.
	Ticks int
	// Selection is the receivers' piece-selection policy.
	Selection Selection
	// RandomFirstCount pieces are picked at random before rarest-first
	// engages (BitTorrent's bootstrap behavior).
	RandomFirstCount int
	// Endgame, when true, lets leechers missing at most EndgameThreshold
	// pieces pull one piece per tick from any peer-set member.
	Endgame bool
	// EndgameThreshold is the missing-piece count that triggers endgame.
	EndgameThreshold int
	// SeedDepartTick is when the original seed leaves (0 = never). A
	// departing initial seed is what makes rare pieces possible.
	SeedDepartTick int
	// SeedAfterComplete keeps finished leechers seeding; when false they
	// depart immediately (the pessimistic population the rare-piece attack
	// needs).
	SeedAfterComplete bool
	// AttackerUplink is an instantly-satiating adversary's total upload
	// capacity in pieces per tick (it holds the whole file).
	AttackerUplink int
}

// DefaultConfig returns a modest healthy swarm.
func DefaultConfig() Config {
	return Config{
		Leechers:          120,
		Pieces:            128,
		UploadSlots:       4,
		RotateInterval:    3,
		PeerSetSize:       24,
		Ticks:             400,
		Selection:         SelectRarestFirst,
		RandomFirstCount:  4,
		Endgame:           true,
		EndgameThreshold:  3,
		SeedDepartTick:    0,
		SeedAfterComplete: true,
		AttackerUplink:    16,
	}
}

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	switch {
	case c.Leechers < 2:
		return fmt.Errorf("swarm: need at least 2 leechers, got %d", c.Leechers)
	case c.Pieces < 1:
		return fmt.Errorf("swarm: Pieces must be positive, got %d", c.Pieces)
	case c.UploadSlots < 1:
		return fmt.Errorf("swarm: UploadSlots must be positive, got %d", c.UploadSlots)
	case c.RotateInterval < 1:
		return fmt.Errorf("swarm: RotateInterval must be positive, got %d", c.RotateInterval)
	case c.PeerSetSize < 2:
		return fmt.Errorf("swarm: PeerSetSize must be at least 2, got %d", c.PeerSetSize)
	case c.Ticks < 1:
		return fmt.Errorf("swarm: Ticks must be positive, got %d", c.Ticks)
	case c.Selection != SelectRandom && c.Selection != SelectRarestFirst:
		return fmt.Errorf("swarm: unknown selection policy %d", c.Selection)
	case c.RandomFirstCount < 0:
		return fmt.Errorf("swarm: RandomFirstCount must be non-negative, got %d", c.RandomFirstCount)
	case c.Endgame && c.EndgameThreshold < 1:
		return fmt.Errorf("swarm: EndgameThreshold must be positive with Endgame on, got %d", c.EndgameThreshold)
	case c.SeedDepartTick < 0:
		return fmt.Errorf("swarm: SeedDepartTick must be non-negative, got %d", c.SeedDepartTick)
	case c.AttackerUplink < 1:
		return fmt.Errorf("swarm: AttackerUplink must be positive, got %d", c.AttackerUplink)
	}
	return nil
}

// state is a node's lifecycle phase.
type state int

const (
	stateLeeching state = iota + 1
	stateSeeding
	stateDeparted
)

// Result summarizes a swarm run.
type Result struct {
	// CompletedFraction is the fraction of leechers that finished within
	// the horizon.
	CompletedFraction float64
	// MeanCompletionTick averages finish ticks, counting unfinished
	// leechers as the horizon (so stalls are visible, not hidden).
	MeanCompletionTick float64
	// MedianCompletionTick is the median finish tick with the same
	// convention.
	MedianCompletionTick float64
	// LostPieces counts pieces that no present node holds while at least
	// one leecher still needs pieces — the signature of a successful
	// rare-piece attack. Zero when every leecher finished (nothing was
	// denied to anyone).
	LostPieces int
	// AttackerUploaded is the attacker's total upload in pieces.
	AttackerUploaded int
	// SatiatedByAttacker is how many leechers finished with more than half
	// their pieces coming from the attacker.
	SatiatedByAttacker int
}

// Option customizes a Sim.
type Option func(*Sim)

// WithAdversary installs the swarm's attacker, a substrate-independent
// adversary strategy. Its hooks map onto the swarm as follows: Place picks
// attacker-controlled leechers — crash and ideal attackers leave the
// protocol (their slots are dead weight), trade attackers hold the full
// file and unchoke only satiation targets; Targets names the leechers the
// external attacker satiates; an instantly-satiating (ideal) adversary
// uploads missing pieces to targets directly each tick, in the set's member
// order, up to Config.AttackerUplink pieces. New binds the swarm as the
// attack.Ranker of an adversary that takes one (attack.Strategy), so a
// ranked strategy satiates the top uploaders or the rarest-piece holders.
func WithAdversary(a sim.Adversary) Option {
	return func(s *Sim) { s.adv = a }
}

// WithDefense installs a receiver-side defense: every piece acceptance —
// protocol transfers, endgame pulls, and attacker uploads (sender -1) — is
// gated by Admit, capping pieces accepted per sender per tick.
func WithDefense(d sim.Defense) Option {
	return func(s *Sim) { s.def = d }
}

// WithChurn installs a round-sorted lifecycle schedule over the leechers
// (nodes in [0, Leechers); the initial seed's exit stays SeedDepartTick's
// job). A departing leecher takes its pieces with it; a (re)arrival on the
// same slot is a fresh empty leecher. Events naming attacker-controlled
// slots are ignored. The swarm stays alive while arrivals are still due,
// even when every current leecher has finished or left.
func WithChurn(events []population.Event) Option {
	return func(s *Sim) { s.churnEvents = events }
}

// WithPieceWeights biases rarest-first tie-breaking by content popularity:
// among equally-rare candidates the receiver picks piece p with probability
// proportional to weights[p] (length Pieces, non-negative, positive sum)
// instead of uniformly. Random selection and the random-first bootstrap
// stay uniform — popularity models demand, not the bootstrap.
func WithPieceWeights(weights []float64) Option {
	return func(s *Sim) { s.pieceWeightsIn = weights }
}

// Sim is one swarm instance.
type Sim struct {
	cfg Config
	rng *simrng.Source

	adv        sim.Adversary
	def        sim.Defense
	advTrades  bool
	advInstant bool
	isAttacker []bool

	n      int // leechers + 1 initial seed (node n-1)
	seedID int

	// Struct-of-arrays agent layout. adjOff holds degree prefix sums over
	// the (sorted) peer graph: node v's peer-set slots occupy
	// [adjOff[v], adjOff[v+1]) of every adjacency-shaped packed array, and
	// within that window index k refers to v's k-th neighbor. adjFlat is
	// the flattened adjacency itself; revPos[adjOff[v]+k] is v's own
	// position in that k-th neighbor's peer set, precomputed so the
	// transfer pass bumps the receiver's reciprocation counter without a
	// binary search. Keying reciprocation state by peer-set position keeps
	// it O(n·degree), not O(n²), and flattening the ragged per-node slices
	// into single backing arrays makes the hot passes linear scans over
	// packed memory.
	adjOff  []int
	adjFlat []int32
	revPos  []int32

	// Piece bitsets as raw words: node v's holdings are the wpn words at
	// pieceWords[v*wpn], and pieceCnt[v] counts them. Raw words instead of
	// per-node set objects matter on the random probes the score and
	// transfer passes make — one load per probe instead of a header chase —
	// and keep the whole swarm's holdings in one contiguous arena.
	pieceWords []uint64
	pieceCnt   []int32
	wpn        int // words per node: ceil(Pieces / 64)

	nodeState []state
	finished  []int // tick completed, -1 otherwise
	// recvCnt[adjOff[v]+k] counts pieces v received this unchoke window
	// from its k-th peer.
	recvCnt  []int32
	uploaded []int // total pieces uploaded, per node
	fromAtk  []int // pieces received from the attacker, per node

	// interested[adjOff[v] : adjOff[v]+intCnt[v]] is v's unchoke-scoring
	// output: the peer-set positions of v's interested leechers, ranked by
	// reciprocation for leechers. Building it is a pure read of swarm
	// state, so large populations shard it across the worker pool (see
	// WithEvalParallel).
	interested []int32
	intCnt     []int32
	// unchoked[v*slotStride : v*slotStride+unchokedCnt[v]] holds the
	// peer-set positions v currently unchokes. slotStride is
	// min(UploadSlots, max degree), the tight per-node bound.
	unchoked    []int32
	unchokedCnt []int32
	slotStride  int

	// Incremental rarity state. rarity[v*Pieces+p] is the number of v's
	// non-departed neighbors holding piece p, and holders[p] the number of
	// present nodes holding p — both maintained by piece-gain and
	// departure deltas (gainPiece, departNode) instead of per-tick
	// rescans. snap/snapTick implement the per-receiver per-tick snapshot
	// the transfer pass reads (see snapFor): rarity judged from the local
	// view a receiver froze at its first transfer of the tick, exactly the
	// lazy semantics of the rescan implementation.
	//
	// A counter counts holders among one node's neighbors, so it is
	// bounded by that node's degree: when the maximum degree fits uint8
	// the narrow arenas are used — halving the two largest counter arenas
	// — and uint16 is the fallback above 255 (or under WithWideRarity).
	// Exactly one pair is non-nil; every access dispatches on wideRarity
	// into code generic over the cell width, so both widths run the same
	// arithmetic and produce bit-identical results (parity-suite pinned).
	rarity8    []uint8
	snap8      []uint8
	rarity16   []uint16
	snap16     []uint16
	wideRarity bool
	snapTick   []int32
	holders    []int32

	// leeching counts nodes in [0, Leechers) still in stateLeeching, so
	// the done check is O(1) instead of an O(n) scan per tick.
	leeching int

	// Population model state. churnEvents/pieceWeightsIn are the raw
	// option inputs, validated in New; churn is the live cursor and
	// pieceWeights the normalized popularity vector (nil when uniform).
	// All stay nil/zero without the options, keeping the static path
	// byte-identical to a build without the model.
	churnEvents    []population.Event
	churn          population.Cursor
	pieceWeightsIn []float64
	pieceWeights   []float64

	permBuf   []int
	missBuf   []int // pooled missing-piece scratch for attack/endgame fills
	targetBuf []int // Rank candidate scratch
	rareScore []int32
	// scanBuf and shardBufs back scanLeechers, the sharded pure-read
	// candidate scan the endgame and lifecycle passes run.
	scanBuf   []int32
	shardBufs [][]int32

	// evalParallel > 0 forces sharded pure-read passes, < 0 forces
	// sequential, 0 picks by population size.
	evalParallel int

	prof *PhaseProfile

	tick int
	res  Result

	// tickRNG is the one stream the tick's per-tick children ("unchoke",
	// "transfer", "endgame") are reseeded into in place, one phase at a
	// time, so a tick allocates no generator.
	tickRNG *simrng.Source
}

// evalParallelMinNodes is the population size at which the pure-read passes
// (unchoke scoring, the endgame/lifecycle candidate scans, the initial
// rarity build) shard across the worker pool by default.
const evalParallelMinNodes = 1 << 15

// WithEvalParallel forces the pure-read passes — unchoke scoring, the
// endgame and lifecycle candidate scans, the initial rarity build — on or
// off the sharded sim.ParallelFor path. Results are bit-identical either
// way (tested); by default sharding engages for populations of
// evalParallelMinNodes and up.
func WithEvalParallel(on bool) Option {
	return func(s *Sim) {
		if on {
			s.evalParallel = 1
		} else {
			s.evalParallel = -1
		}
	}
}

// sharded reports whether the pure-read passes run on the worker pool.
func (s *Sim) sharded() bool {
	return s.evalParallel > 0 || (s.evalParallel == 0 && s.n >= evalParallelMinNodes)
}

// rarityCell is the set of storage widths a rarity counter row can use.
// The rarity-touching hot paths (transfer snapshots, rarest-first piece
// selection, the gain/departure delta loops, the initial build) are generic
// over it, so the narrow and wide arenas run the same arithmetic.
type rarityCell interface{ uint8 | uint16 }

// WithWideRarity forces uint16 rarity counter rows even when the maximum
// degree fits uint8 and the narrow arenas would naturally be picked.
// Results are bit-identical either way — the parity suite pins it — so the
// option exists only to let tests drive the wide fallback on small
// configurations.
func WithWideRarity() Option {
	return func(s *Sim) { s.wideRarity = true }
}

// New builds a Sim, deterministic in (cfg, seed). Node ids 0..Leechers-1
// are leechers; node Leechers is the initial seed.
func New(cfg Config, seed uint64, opts ...Option) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Leechers + 1
	s := &Sim{
		cfg:       cfg,
		rng:       simrng.New(seed),
		n:         n,
		seedID:    n - 1,
		nodeState: make([]state, n),
		finished:  make([]int, n),
		uploaded:  make([]int, n),
		fromAtk:   make([]int, n),
	}
	for _, opt := range opts {
		opt(s)
	}
	if len(s.churnEvents) > 0 {
		if err := population.ValidateSchedule(s.churnEvents, cfg.Leechers); err != nil {
			return nil, fmt.Errorf("swarm: %w", err)
		}
		s.churn = population.NewCursor(s.churnEvents)
	}
	if s.pieceWeightsIn != nil {
		if len(s.pieceWeightsIn) != cfg.Pieces {
			return nil, fmt.Errorf("swarm: piece weights have %d entries for %d pieces", len(s.pieceWeightsIn), cfg.Pieces)
		}
		s.pieceWeights = population.Normalize(s.pieceWeightsIn)
		if s.pieceWeights == nil {
			return nil, errors.New("swarm: piece weights must be non-negative with a positive finite sum")
		}
	}
	deg := cfg.PeerSetSize / 2
	if deg < 1 {
		deg = 1
	}
	peers := graph.RandomRegularish(n, deg, s.rng.Child("peers"))

	// Freeze the packed layout: degree prefix sums, the flat int32
	// adjacency, adjacency-shaped per-node arrays, the piece-word arena,
	// and the rarity counters. adjFlat holds the whole peer graph, so the
	// graph itself is not kept.
	s.adjOff = make([]int, n+1)
	sim.AdviseHugePages(s.adjOff)
	maxDeg := 0
	for v := 0; v < n; v++ {
		d := len(peers.AdjList(v))
		if d > maxDeg {
			maxDeg = d
		}
		s.adjOff[v+1] = s.adjOff[v] + d
	}
	total := s.adjOff[n]
	s.adjFlat = make([]int32, total)
	// Advise before first touch: with THP in madvise mode the kernel only
	// installs 2MB pages on fault, so the hint must precede the fill.
	sim.AdviseHugePages(s.adjFlat)
	for v := 0; v < n; v++ {
		base := s.adjOff[v]
		for k, w := range peers.AdjList(v) {
			s.adjFlat[base+k] = int32(w)
		}
	}
	s.revPos = make([]int32, total)
	s.recvCnt = make([]int32, total)
	s.interested = make([]int32, total)
	s.intCnt = make([]int32, n)
	s.slotStride = cfg.UploadSlots
	if s.slotStride > maxDeg {
		// A node can never unchoke more peers than it has, so the packed
		// unchoke array only needs min(UploadSlots, max degree) slots each.
		s.slotStride = maxDeg
	}
	if s.slotStride < 1 {
		s.slotStride = 1
	}
	s.unchoked = make([]int32, n*s.slotStride)
	s.unchokedCnt = make([]int32, n)
	s.wpn = (cfg.Pieces + 63) / 64
	s.pieceWords = make([]uint64, n*s.wpn)
	s.pieceCnt = make([]int32, n)
	if maxDeg > math.MaxUint8 {
		// A rarity counter is bounded by its node's degree; above uint8
		// range the wide arenas are the only correct choice.
		s.wideRarity = true
	}
	if s.wideRarity {
		s.rarity16 = make([]uint16, n*cfg.Pieces)
		s.snap16 = make([]uint16, n*cfg.Pieces)
	} else {
		s.rarity8 = make([]uint8, n*cfg.Pieces)
		s.snap8 = make([]uint8, n*cfg.Pieces)
	}
	s.snapTick = make([]int32, n)
	s.holders = make([]int32, cfg.Pieces)
	// The rarity increments, piece-word probes, and reciprocation bumps hit
	// these arenas at random node offsets; at million-node scale that is a
	// TLB walk per probe on 4K pages, which serializes ahead of the cache
	// miss itself. Huge pages make the walks free (hint only — results are
	// identical without it).
	sim.AdviseHugePages(s.rarity8)
	sim.AdviseHugePages(s.snap8)
	sim.AdviseHugePages(s.rarity16)
	sim.AdviseHugePages(s.snap16)
	sim.AdviseHugePages(s.pieceWords)
	sim.AdviseHugePages(s.pieceCnt)
	sim.AdviseHugePages(s.revPos)
	sim.AdviseHugePages(s.recvCnt)
	sim.AdviseHugePages(s.interested)
	sim.AdviseHugePages(s.nodeState)
	sim.AdviseHugePages(s.snapTick)
	sim.AdviseHugePages(s.unchoked)

	for v := 0; v < n; v++ {
		s.nodeState[v] = stateLeeching
		s.finished[v] = -1
		s.snapTick[v] = -1
	}
	s.fillPieces(s.seedID)
	s.nodeState[s.seedID] = stateSeeding
	s.finished[s.seedID] = 0
	if s.adv != nil {
		s.advTrades = sim.TradesInProtocol(s.adv)
		s.advInstant = sim.SatiatesInstantly(s.adv)
		if r, ok := s.adv.(interface{ UseRanker(attack.Ranker) }); ok {
			r.UseRanker(s)
		}
		s.isAttacker = make([]bool, s.n)
		for _, a := range s.adv.Place(cfg.Leechers, s.rng.Child("adversary")) {
			if a < 0 || a >= cfg.Leechers {
				return nil, fmt.Errorf("swarm: adversary placed node %d outside [0,%d)", a, cfg.Leechers)
			}
			s.isAttacker[a] = true
			s.finished[a] = 0
			if s.advTrades {
				// Trade attackers hold the full file and seed selectively.
				s.fillPieces(a)
				s.nodeState[a] = stateSeeding
			} else {
				// Crash and ideal attacker nodes leave the protocol: no
				// service in, no service out — crashed peers.
				s.nodeState[a] = stateDeparted
			}
		}
	}
	for v := 0; v < cfg.Leechers; v++ {
		if s.nodeState[v] == stateLeeching {
			s.leeching++
		}
	}
	// Adjacency lists are sorted and symmetric, so v's position in u's list
	// is the number of u's neighbors below v: one ascending pass over v with
	// a per-node counter fills the reverse-position table.
	seen := make([]int32, n)
	for e, u := range s.adjFlat {
		s.revPos[e] = seen[u]
		seen[u]++
	}
	s.rebuildRarity()
	return s, nil
}

// adj returns v's packed neighbor window of the flat adjacency.
func (s *Sim) adj(v int) []int32 {
	return s.adjFlat[s.adjOff[v]:s.adjOff[v+1]]
}

// hasPiece reports whether v holds p.
func (s *Sim) hasPiece(v, p int) bool {
	return s.pieceWords[v*s.wpn+p>>6]&(1<<(uint(p)&63)) != 0
}

// pieceLen returns how many pieces v holds.
func (s *Sim) pieceLen(v int) int { return int(s.pieceCnt[v]) }

// fillPieces gives v the complete file.
func (s *Sim) fillPieces(v int) {
	base := v * s.wpn
	for i := 0; i < s.wpn; i++ {
		s.pieceWords[base+i] = ^uint64(0)
	}
	if rem := s.cfg.Pieces % 64; rem != 0 {
		s.pieceWords[base+s.wpn-1] = (1 << rem) - 1
	}
	s.pieceCnt[v] = int32(s.cfg.Pieces)
}

// forEachPiece calls fn for every piece v holds, in ascending order.
//
//lotus:allocfree
func (s *Sim) forEachPiece(v int, fn func(p int)) {
	base := v * s.wpn
	for i := 0; i < s.wpn; i++ {
		w := s.pieceWords[base+i]
		for w != 0 {
			fn(i*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// appendMissing appends the pieces v lacks to buf in ascending order.
//
//lotus:allocfree
func (s *Sim) appendMissing(v int, buf []int) []int {
	base := v * s.wpn
	P := s.cfg.Pieces
	for i := 0; i < s.wpn; i++ {
		w := ^s.pieceWords[base+i]
		wordBase := i * 64
		for w != 0 {
			p := wordBase + bits.TrailingZeros64(w)
			if p >= P {
				break
			}
			buf = append(buf, p)
			w &= w - 1
		}
	}
	return buf
}

// rebuildRarity recomputes every rarity row and the global holder counters
// from scratch, establishing the invariant the incremental deltas maintain.
// The per-node rows are a pure read of neighbor state, so the build shards
// across the worker pool for large populations.
func (s *Sim) rebuildRarity() {
	if s.wideRarity {
		rebuildRows(s, s.rarity16)
	} else {
		rebuildRows(s, s.rarity8)
	}
	s.recountHolders(s.holders)
}

// rebuildRows recounts every row of the given rarity arena.
func rebuildRows[T rarityCell](s *Sim, arena []T) {
	P := s.cfg.Pieces
	rebuild := func(start, end int) {
		for v := start; v < end; v++ {
			recountRow(s, v, arena[v*P:(v+1)*P])
		}
	}
	if s.sharded() {
		sim.ParallelFor(s.n, 0, func(_, start, end int) { rebuild(start, end) })
	} else {
		rebuild(0, s.n)
	}
}

// recountRow writes a from-scratch recount of v's local rarity view — per
// piece, the number of v's non-departed neighbors holding it — into dst.
func recountRow[T rarityCell](s *Sim, v int, dst []T) {
	clear(dst)
	for _, nb := range s.adj(v) {
		if s.nodeState[nb] == stateDeparted {
			continue
		}
		s.forEachPiece(int(nb), func(p int) { dst[p]++ })
	}
}

// rarityAt returns the maintained rarity counter for (v, p), width-blind —
// the accessor the parity suite reads the live state through.
func (s *Sim) rarityAt(v, p int) int {
	if s.wideRarity {
		return int(s.rarity16[v*s.cfg.Pieces+p])
	}
	return int(s.rarity8[v*s.cfg.Pieces+p])
}

// recountRarityRow writes a from-scratch recount of v's local rarity view
// into dst, width-free. This is the reference implementation the
// incremental counters are parity-tested against; it deliberately shares no
// code with the width-typed recountRow the arena builds use, so the parity
// suite checks the maintained state against an independent computation. The
// hot path never calls it after construction.
func (s *Sim) recountRarityRow(v int, dst []int) {
	clear(dst)
	for _, nb := range s.adj(v) {
		if s.nodeState[nb] == stateDeparted {
			continue
		}
		s.forEachPiece(int(nb), func(p int) { dst[p]++ })
	}
}

// recountHolders writes a from-scratch recount of the global per-piece
// present-holder counts into dst — the reference for the maintained holders
// array.
func (s *Sim) recountHolders(dst []int32) {
	clear(dst)
	for v := 0; v < s.n; v++ {
		if s.nodeState[v] == stateDeparted {
			continue
		}
		s.forEachPiece(v, func(p int) { dst[p]++ })
	}
}

// gainPiece records node v gaining piece p, maintaining the incremental
// rarity state: the global holder count and the cached local view of every
// neighbor of v. This is the swarm's unit of work — O(degree) counter
// bumps per piece gained, replacing the per-receiver per-tick
// O(degree·pieces) bitset rescans that dominated large runs.
//
// The loop bumps every neighbor's row unconditionally, including rows of
// neighbors that already completed or departed and whose rows can never be
// read again (snapshots are only taken for leeching transfer receivers).
// Skipping dead rows via an L2-resident liveness bitmap was tried and
// measured SLOWER at n=10^6 even with 97% of rows dead: the probe adds a
// dependent load and a data-dependent branch to every visit, while the
// "wasted" counter bumps overlap each other through memory-level
// parallelism. Write-only garbage is cheaper than a mispredicted skip.
//
//lotus:allocfree
func (s *Sim) gainPiece(v, p int) {
	wi := v*s.wpn + p>>6
	m := uint64(1) << (uint(p) & 63)
	if s.pieceWords[wi]&m != 0 {
		return
	}
	s.pieceWords[wi] |= m
	s.pieceCnt[v]++
	s.holders[p]++
	if s.wideRarity {
		bumpRows(s.rarity16, s.adj(v), s.cfg.Pieces, p)
	} else {
		bumpRows(s.rarity8, s.adj(v), s.cfg.Pieces, p)
	}
}

// bumpRows adds one to piece p's counter in every listed neighbor's row.
//
//lotus:allocfree
func bumpRows[T rarityCell](r []T, adj []int32, P, p int) {
	for _, w := range adj {
		r[int(w)*P+p]++
	}
}

// dropRows subtracts one from piece p's counter in every listed neighbor's
// row.
//
//lotus:allocfree
func dropRows[T rarityCell](r []T, adj []int32, P, p int) {
	for _, w := range adj {
		r[int(w)*P+p]--
	}
}

// departNode transitions v to departed, subtracting its holdings from the
// global holder counts and from every neighbor's rarity view exactly once.
// Departed nodes never gain pieces, so no further maintenance is needed.
//
//lotus:allocfree
func (s *Sim) departNode(v int) {
	if s.nodeState[v] == stateDeparted {
		return
	}
	s.nodeState[v] = stateDeparted
	P := s.cfg.Pieces
	adj := s.adj(v)
	s.forEachPiece(v, func(p int) {
		s.holders[p]--
		if s.wideRarity {
			dropRows(s.rarity16, adj, P, p)
		} else {
			dropRows(s.rarity8, adj, P, p)
		}
	})
}

// Tick returns the next tick to simulate.
func (s *Sim) Tick() int { return s.tick }

// Run simulates the full horizon.
func (s *Sim) Run() (Result, error) {
	for !s.Finished() {
		if err := s.Step(); err != nil {
			return Result{}, err
		}
	}
	return s.finish(), nil
}

// Finished reports whether the horizon has been reached or every leecher
// has left the leeching state with no arrivals still due (nothing further
// can change).
func (s *Sim) Finished() bool {
	return s.tick >= s.cfg.Ticks || (s.leeching == 0 && s.churn.JoinsAhead() == 0)
}

// Snapshot returns the Result summarizing the run so far.
func (s *Sim) Snapshot() (any, error) { return s.finish(), nil }

// Step simulates one tick.
//
//lotus:allocfree
func (s *Sim) Step() error {
	if s.tick >= s.cfg.Ticks {
		return errors.New("swarm: horizon exhausted")
	}
	// Lifecycle events due this tick take effect before any transfer or
	// attack targeting, so the adversary learns of a departure before it
	// would serve the leaver.
	for ev, ok := s.churn.Next(s.tick); ok; ev, ok = s.churn.Next(s.tick) {
		if s.isAttacker != nil && s.isAttacker[ev.Node] {
			continue // adversary infrastructure does not churn
		}
		if ev.Join {
			s.rejoinNode(ev.Node)
		} else {
			s.churnLeave(ev.Node)
		}
	}
	if s.advInstant {
		s.runPhase(phaseAttack, s.advSatiateStep)
	}
	if s.tick%s.cfg.RotateInterval == 0 {
		s.recomputeUnchokes()
	}
	s.runPhase(phaseTransfer, s.transferStep)
	if s.cfg.Endgame {
		s.runPhase(phaseEndgame, s.endgameStep)
	}
	s.runPhase(phaseLifecycle, s.lifecycleStep)
	if s.prof != nil {
		s.prof.Ticks++
	}
	s.tick++
	return nil
}

// churnLeave removes leecher v on a churn event. departNode already owes
// the rarity and holder subtraction; on top of that the leeching counter
// drops when a downloader leaves, and the adversary is told so a satiated
// slot that later re-arrives is not inherited as a standing target.
//
//lotus:allocfree
func (s *Sim) churnLeave(v int) {
	if s.nodeState[v] == stateDeparted {
		return
	}
	if s.nodeState[v] == stateLeeching {
		s.leeching--
	}
	s.departNode(v)
	if s.adv != nil {
		sim.NotifyDeparture(s.adv, s.tick, v)
	}
}

// rejoinNode (re)admits slot v as a fresh empty leecher. The departed
// node's holdings were already subtracted from the holder counts and every
// neighbor's rarity view by departNode, and its own rarity row was
// maintained throughout its absence (gain and departure deltas bump all
// neighbor rows unconditionally), so clearing the piece words is the only
// state that needs touching — plus the per-window reciprocation counters,
// which a fresh node starts at zero.
//
//lotus:allocfree
func (s *Sim) rejoinNode(v int) {
	if s.nodeState[v] != stateDeparted {
		return
	}
	base := v * s.wpn
	clear(s.pieceWords[base : base+s.wpn])
	s.pieceCnt[v] = 0
	clear(s.recvCnt[s.adjOff[v]:s.adjOff[v+1]])
	s.nodeState[v] = stateLeeching
	s.finished[v] = -1
	s.fromAtk[v] = 0
	s.uploaded[v] = 0
	s.leeching++
}

// advSatiateStep is the instantly-satiating (ideal) adversary's tick: it
// uploads missing pieces directly to its satiation targets in member order
// (best first for a ranked strategy), spending up to the uplink budget,
// gated per target by the defense's Admit hook. The sparse member list
// makes the pass O(|satiated set|), not O(Leechers).
//
//lotus:allocfree
func (s *Sim) advSatiateStep() {
	targets := s.adv.Targets(s.tick)
	budget := s.cfg.AttackerUplink
	for _, t := range targets.Members() {
		if budget == 0 {
			break
		}
		if t >= s.cfg.Leechers || s.isAttacker[t] || s.nodeState[t] != stateLeeching {
			continue
		}
		missing := s.appendMissing(t, s.missBuf[:0])
		s.missBuf = missing
		for _, p := range missing {
			if budget == 0 {
				break
			}
			if s.def != nil && s.def.Admit(s.tick, -1, t, 1) == 0 {
				break // this target's per-tick acceptance is exhausted
			}
			s.gainPiece(t, p)
			s.fromAtk[t]++
			s.res.AttackerUploaded++
			budget--
		}
	}
}

// Rank implements attack.Ranker over the leechers still downloading: the
// top k uploaders, or the k holders of the rarest pieces (by their rarest
// held piece's global holder count), best first with ties broken by id.
// The returned slice is reused by the next call.
//
//lotus:allocfree
func (s *Sim) Rank(r attack.Rank, k int) []int {
	cands := s.targetBuf[:0]
	for v := 0; v < s.cfg.Leechers; v++ {
		if s.nodeState[v] == stateLeeching {
			cands = append(cands, v)
		}
	}
	s.targetBuf = cands
	if len(cands) == 0 {
		return nil
	}
	// Both orderings are strict total orders (ties broken by node id), so
	// the sorted result is algorithm-independent and any correct sort
	// reproduces the historical sort.Slice output exactly.
	switch r {
	case attack.RankUploaders:
		slices.SortFunc(cands, func(a, b int) int {
			if s.uploaded[a] != s.uploaded[b] {
				if s.uploaded[a] > s.uploaded[b] {
					return -1
				}
				return 1
			}
			return a - b
		})
	case attack.RankRarest:
		// Lower is rarer: score each candidate by its rarest held piece,
		// judged from the maintained global holder counts.
		if s.rareScore == nil {
			s.rareScore = make([]int32, s.n) //lotus:ignore allocfree once per run, and only under a rarest-piece ranking
		}
		for _, v := range cands {
			best := int32(s.n + 1)
			s.forEachPiece(v, func(p int) {
				if s.holders[p] < best {
					best = s.holders[p]
				}
			})
			s.rareScore[v] = best
		}
		slices.SortFunc(cands, func(a, b int) int {
			if s.rareScore[a] != s.rareScore[b] {
				return int(s.rareScore[a] - s.rareScore[b])
			}
			return a - b
		})
	default:
		return nil
	}
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}

// recomputeUnchokes rebuilds every node's unchoke set: top reciprocators by
// pieces received in the last window plus one optimistic unchoke; seeds
// unchoke random interested peers. Reciprocation counters reset afterwards.
//
// The rebuild is split in two passes. Peer scoring — which neighbors are
// interested, ranked by reciprocation for leechers — is a pure read of swarm
// state, so it shards across the worker pool for large populations with
// bit-identical results. Slot selection consumes the tick's RNG stream and
// stays sequential in node order, exactly as before the split.
//
// Scoring skips every node that holds no piece (pieceCnt 0) and leaves its
// interested list empty without walking its peer set. That list would be
// empty anyway: hasPieceFor(v, ·) is false for every neighbor of an empty
// node. No adversary probe is lost either, because no attacker node is ever
// present and empty: crash and ideal attacker nodes are departed from New on,
// trade attacker nodes hold the full file, and attacker nodes do not churn.
//
//lotus:allocfree
func (s *Sim) recomputeUnchokes() {
	if s.adv != nil {
		// Pin the targeting epoch before any concurrent OnExchange probe:
		// a rotating targeter re-draws lazily inside Targets, and that
		// mutation must happen on this goroutine, not inside a shard.
		s.adv.Targets(s.tick)
	}
	score := func(start, end int) {
		for v := start; v < end; v++ {
			base := s.adjOff[v]
			cnt := 0
			if s.nodeState[v] != stateDeparted && s.pieceCnt[v] != 0 {
				isAtk := s.isAttacker != nil && s.isAttacker[v]
				for k, pp := range s.adj(v) {
					p := int(pp)
					if s.nodeState[p] != stateLeeching {
						continue
					}
					// A trade attacker unchokes only its satiation targets.
					if isAtk && !s.adv.OnExchange(s.tick, v, p) {
						continue
					}
					if s.hasPieceFor(v, p) {
						s.interested[base+cnt] = int32(k)
						cnt++
					}
				}
				if s.nodeState[v] == stateLeeching && cnt > 1 {
					sortByRecv(s.interested[base:base+cnt], s.recvCnt[base:s.adjOff[v+1]])
				}
			}
			s.intCnt[v] = int32(cnt)
		}
	}
	s.runPhase(phaseUnchokeScore, func() {
		if s.sharded() {
			sim.ParallelFor(s.n, 0, func(_, start, end int) { score(start, end) })
		} else {
			score(0, s.n)
		}
	})

	s.runPhase(phaseUnchokeSelect, func() {
		s.tickRNG = s.rng.ChildNInto(s.tickRNG, "unchoke", s.tick)
		rng := s.tickRNG
		for v := 0; v < s.n; v++ {
			base := s.adjOff[v]
			interested := s.interested[base : base+int(s.intCnt[v])]
			ubase := v * s.slotStride
			ucnt := 0
			if s.nodeState[v] == stateDeparted || len(interested) == 0 {
				s.unchokedCnt[v] = 0
				continue
			}
			slots := s.cfg.UploadSlots
			if s.nodeState[v] == stateSeeding {
				// Seeds have no reciprocation signal; rotate randomly.
				rng.Shuffle(len(interested), func(a, b int) {
					interested[a], interested[b] = interested[b], interested[a]
				})
				take := min(len(interested), slots)
				copy(s.unchoked[ubase:ubase+take], interested[:take])
				s.unchokedCnt[v] = int32(take)
				continue
			}
			regular := slots - 1
			if regular > len(interested) {
				regular = len(interested)
			}
			copy(s.unchoked[ubase:ubase+regular], interested[:regular])
			ucnt = regular
			if rest := interested[regular:]; len(rest) > 0 {
				s.unchoked[ubase+ucnt] = rest[rng.IntN(len(rest))] // optimistic
				ucnt++
			}
			s.unchokedCnt[v] = int32(ucnt)
		}
		clear(s.recvCnt)
	})
}

// sortByRecv orders list — peer-set positions, all distinct — by pieces
// received in the window (recv, indexed by position) descending, ties
// toward the lower position. The keys form a strict total order, so the
// result is exactly what any comparison sort (including the historical
// sort.Slice) produces. Interested lists are degree-bounded and usually
// short, so a branch-light insertion sort beats a general sort without
// allocating; genuinely wide lists fall back to slices.SortFunc, which is
// also allocation-free.
//
//lotus:allocfree
func sortByRecv(list []int32, recv []int32) {
	if len(list) > 48 {
		slices.SortFunc(list, func(a, b int32) int {
			ra, rb := recv[a], recv[b]
			if ra != rb {
				if ra > rb {
					return -1
				}
				return 1
			}
			return int(a - b)
		})
		return
	}
	for i := 1; i < len(list); i++ {
		x := list[i]
		rx := recv[x]
		j := i
		for j > 0 {
			y := list[j-1]
			ry := recv[y]
			if ry > rx || (ry == rx && y < x) {
				break
			}
			list[j] = y
			j--
		}
		list[j] = x
	}
}

// hasPieceFor reports whether v holds any piece that p lacks.
//
//lotus:allocfree
func (s *Sim) hasPieceFor(v, p int) bool {
	if int(s.pieceCnt[v]) == s.cfg.Pieces {
		// Full nodes (seeds, trade attackers) interest exactly the
		// non-full — no word scan needed.
		return int(s.pieceCnt[p]) != s.cfg.Pieces
	}
	W := s.wpn
	vb := s.pieceWords[v*W : v*W+W]
	pb := s.pieceWords[p*W : p*W+W]
	for i, w := range vb {
		if w&^pb[i] != 0 {
			return true
		}
	}
	return false
}

// snapFor returns receiver v's piece-rarity view for the current tick, read
// from the given live/snapshot arena pair. Rarity is judged from each
// receiver's local peer-set view, as in BitTorrent: a global snapshot would
// make every receiver chase the same piece each tick (herding), destroying
// the diversity the policy exists to create. The view a receiver takes at
// its first transfer of the tick is frozen for the rest of the tick — the
// semantics the rescan implementation had — by copying the live counter row
// once per receiver per tick: O(Pieces) instead of the rescan's
// O(degree·pieces).
//
//lotus:allocfree
func snapFor[T rarityCell](s *Sim, rarity, snap []T, v int) []T {
	P := s.cfg.Pieces
	row := snap[v*P : (v+1)*P]
	if s.snapTick[v] == int32(s.tick) {
		return row
	}
	if s.prof != nil {
		t := time.Now() //lotus:ignore detrand rarity-time attribution feeds the bench profile, never simulation state
		copy(row, rarity[v*P:(v+1)*P])
		s.prof.d[phaseRarity] += time.Since(t) //lotus:ignore detrand rarity-time attribution feeds the bench profile, never simulation state
	} else {
		copy(row, rarity[v*P:(v+1)*P])
	}
	s.snapTick[v] = int32(s.tick)
	return row
}

// transferStep moves one piece along every unchoked, interested link. The
// body is generic over the rarity counter width; this dispatcher binds the
// arena pair once per tick.
//
//lotus:allocfree
func (s *Sim) transferStep() {
	if s.wideRarity {
		transferPass(s, s.rarity16, s.snap16)
	} else {
		transferPass(s, s.rarity8, s.snap8)
	}
}

//lotus:allocfree
func transferPass[T rarityCell](s *Sim, rarity, snap []T) {
	s.tickRNG = s.rng.ChildNInto(s.tickRNG, "transfer", s.tick)
	rng := s.tickRNG
	order := rng.PermInto(s.permBuf, s.n)
	s.permBuf = order
	// The snapshot is taken at the receiver's first transfer attempt of the
	// tick — not lazily at the first rarest-first read — because that is
	// when the rescan implementation froze each receiver's view, and a
	// later freeze would see gains from intervening transfers. Under the
	// pure-random policy the snapshot is never read, so it is skipped.
	snapshots := s.cfg.Selection == SelectRarestFirst
	for _, v := range order {
		if s.nodeState[v] == stateDeparted {
			continue
		}
		cnt := int(s.unchokedCnt[v])
		if cnt == 0 {
			continue
		}
		base := s.adjOff[v]
		ubase := v * s.slotStride
		for _, k := range s.unchoked[ubase : ubase+cnt] {
			e := base + int(k)
			p := int(s.adjFlat[e])
			if s.nodeState[p] != stateLeeching {
				continue
			}
			var counts []T
			if snapshots {
				counts = snapFor(s, rarity, snap, p)
			}
			piece, ok := selectPiece(s, v, p, counts, rng)
			if !ok {
				continue
			}
			if s.def != nil && s.def.Admit(s.tick, v, p, 1) == 0 {
				continue
			}
			s.gainPiece(p, piece)
			s.recvCnt[s.adjOff[p]+int(s.revPos[e])]++
			s.uploaded[v]++
		}
	}
}

// selectPiece applies the receiver's selection policy to the sender's
// holdings, judging rarity from counts, the receiver's tick-frozen local
// snapshot. Candidates — pieces the sender holds and the receiver lacks —
// are scanned straight out of the piece words in ascending order, the same
// order the historical materialized candidate slice had, so the RNG draws
// (one IntN over the candidate count, or one over the tie count) are
// exactly the draws that implementation made.
//
//lotus:allocfree
func selectPiece[T rarityCell](s *Sim, sender, receiver int, counts []T, rng *simrng.Source) (int, bool) {
	W := s.wpn
	sb := s.pieceWords[sender*W : sender*W+W]
	rb := s.pieceWords[receiver*W : receiver*W+W]
	total := 0
	for i, w := range sb {
		total += bits.OnesCount64(w &^ rb[i])
	}
	if total == 0 {
		return 0, false
	}
	if s.cfg.Selection == SelectRandom || int(s.pieceCnt[receiver]) < s.cfg.RandomFirstCount {
		return nthDiff(sb, rb, rng.IntN(total)), true
	}
	// Rarest first, breaking ties uniformly at random: deterministic
	// tie-breaking would make every receiver chase the same piece and
	// destroy diversity — the opposite of the policy's purpose. With
	// popularity weights installed the tie-break is weighted instead —
	// demand skews which of the equally-rare pieces moves.
	weights := s.pieceWeights
	best := ^T(0)
	ties := 0
	wTotal := 0.0
	for i, w := range sb {
		d := w &^ rb[i]
		wordBase := i * 64
		for d != 0 {
			p := wordBase + bits.TrailingZeros64(d)
			c := counts[p]
			if c < best {
				best = c
				ties = 1
				if weights != nil {
					wTotal = weights[p]
				}
			} else if c == best {
				ties++
				if weights != nil {
					wTotal += weights[p]
				}
			}
			d &= d - 1
		}
	}
	if weights != nil && wTotal > 0 {
		x := rng.Float64() * wTotal
		acc := 0.0
		last := -1
		for i, w := range sb {
			d := w &^ rb[i]
			wordBase := i * 64
			for d != 0 {
				p := wordBase + bits.TrailingZeros64(d)
				if counts[p] == best {
					acc += weights[p]
					last = p
					if x < acc {
						return p, true
					}
				}
				d &= d - 1
			}
		}
		return last, true // float round-off: fall back to the last tie
	}
	k := rng.IntN(ties)
	for i, w := range sb {
		d := w &^ rb[i]
		wordBase := i * 64
		for d != 0 {
			p := wordBase + bits.TrailingZeros64(d)
			if counts[p] == best {
				if k == 0 {
					return p, true
				}
				k--
			}
			d &= d - 1
		}
	}
	panic("swarm: rarest-first tie selection out of range")
}

// nthDiff returns the k-th (ascending) piece set in sb but clear in rb.
//
//lotus:allocfree
func nthDiff(sb, rb []uint64, k int) int {
	for i, w := range sb {
		d := w &^ rb[i]
		c := bits.OnesCount64(d)
		if k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			d &= d - 1
		}
		return i*64 + bits.TrailingZeros64(d)
	}
	panic("swarm: diff selection out of range")
}

// scanLeechers collects, in ascending node order, the nodes in [0, limit)
// satisfying keep. keep must be a pure read of swarm state: for large
// populations the scan shards across the worker pool, and shard-order
// concatenation makes the result bit-identical to the sequential scan. The
// returned slice aliases s.scanBuf and is valid until the next call.
//
//lotus:allocfree
func (s *Sim) scanLeechers(limit int, keep func(v int) bool) []int32 {
	out := s.scanBuf[:0]
	if !s.sharded() {
		for v := 0; v < limit; v++ {
			if keep(v) {
				out = append(out, int32(v))
			}
		}
		s.scanBuf = out
		return out
	}
	// A coarser grain than DefaultGrain: the per-node predicate is a couple
	// of array reads, so smaller shards would be all fan-out overhead.
	const grain = 1 << 15
	shards := (limit + grain - 1) / grain
	if cap(s.shardBufs) < shards {
		s.shardBufs = make([][]int32, shards) //lotus:allocsetup shard-buffer pool grows once on first sharded scan, then steady-state ticks reuse it
	}
	s.shardBufs = s.shardBufs[:shards]
	sim.ParallelFor(limit, grain, func(shard, start, end int) {
		buf := s.shardBufs[shard][:0]
		for v := start; v < end; v++ {
			if keep(v) {
				buf = append(buf, int32(v))
			}
		}
		s.shardBufs[shard] = buf
	})
	for _, buf := range s.shardBufs {
		out = append(out, buf...)
	}
	s.scanBuf = out
	return out
}

// endgameStep lets nearly finished leechers pull one missing piece from any
// peer-set member that holds it. The candidate gate — leeching, within
// EndgameThreshold of done — reads only the node's own state, which no
// endgame pull of another node mutates, so the scan shards while the
// RNG-consuming pulls stay sequential in node order.
//
//lotus:allocfree
func (s *Sim) endgameStep() {
	P := s.cfg.Pieces
	thr := s.cfg.EndgameThreshold
	cands := s.scanLeechers(s.cfg.Leechers, func(v int) bool {
		if s.nodeState[v] != stateLeeching {
			return false
		}
		miss := P - int(s.pieceCnt[v])
		return miss > 0 && miss <= thr
	})
	s.tickRNG = s.rng.ChildNInto(s.tickRNG, "endgame", s.tick)
	rng := s.tickRNG
	for _, vv := range cands {
		v := int(vv)
		missing := s.appendMissing(v, s.missBuf[:0])
		s.missBuf = missing
		p := missing[rng.IntN(len(missing))]
		for _, nbb := range s.adj(v) {
			nb := int(nbb)
			if s.nodeState[nb] == stateDeparted || !s.hasPiece(nb, p) {
				continue
			}
			if s.isAttacker != nil && s.isAttacker[nb] && !s.adv.OnExchange(s.tick, nb, v) {
				continue // the attacker stonewalls non-targets even in endgame
			}
			if s.def != nil && s.def.Admit(s.tick, nb, v, 1) == 0 {
				continue
			}
			s.gainPiece(v, p)
			s.uploaded[nb]++
			break
		}
	}
}

// lifecycleStep handles completions and departures. Completion detection is
// a pure read (a leecher's done-ness depends only on its own pieces), so it
// shards; the bookkeeping — including the rarity subtraction a departure
// owes — applies sequentially in node order.
//
//lotus:allocfree
func (s *Sim) lifecycleStep() {
	P := int32(s.cfg.Pieces)
	done := s.scanLeechers(s.cfg.Leechers, func(v int) bool {
		return s.nodeState[v] == stateLeeching && s.pieceCnt[v] == P
	})
	for _, vv := range done {
		v := int(vv)
		s.finished[v] = s.tick
		if s.fromAtk[v]*2 > s.cfg.Pieces {
			s.res.SatiatedByAttacker++
		}
		if s.cfg.SeedAfterComplete {
			s.nodeState[v] = stateSeeding
		} else {
			s.departNode(v)
		}
		s.leeching--
	}
	if s.cfg.SeedDepartTick > 0 && s.tick >= s.cfg.SeedDepartTick && s.nodeState[s.seedID] == stateSeeding {
		s.departNode(s.seedID)
	}
}

func (s *Sim) finish() Result {
	res := s.res
	var ticks []float64
	done := 0
	for v := 0; v < s.cfg.Leechers; v++ {
		if s.isAttacker != nil && s.isAttacker[v] {
			continue // attacker-controlled leechers are not victims
		}
		t := float64(s.cfg.Ticks)
		if s.finished[v] >= 0 {
			done++
			t = float64(s.finished[v])
		}
		ticks = append(ticks, t)
	}
	if len(ticks) == 0 {
		return res
	}
	res.CompletedFraction = float64(done) / float64(len(ticks))
	sum := 0.0
	for _, t := range ticks {
		sum += t
	}
	res.MeanCompletionTick = sum / float64(len(ticks))
	sort.Float64s(ticks)
	res.MedianCompletionTick = ticks[len(ticks)/2]

	if s.leeching > 0 {
		for _, c := range s.holders {
			if c == 0 {
				res.LostPieces++
			}
		}
	}
	return res
}
