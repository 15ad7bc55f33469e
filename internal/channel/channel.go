// Package channel models the shared 2.4 GHz broadcast medium of the BAN
// at the physical level the paper's framework cares about: concurrent
// transmissions collide and corrupt each other (TOSSIM's logical-or
// shortcut is replaced by real corruption so the receiver's CRC fails,
// §4.2), every listening radio in range receives every frame (enabling
// overhearing accounting), and links can carry a configurable bit error
// rate.
//
// Body Area Networks are a single interference domain — a few metres of
// body surface — so the default topology is fully connected, with
// per-link overrides for reachability and error-rate experiments.
package channel

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/approx"
	"repro/internal/sim"
)

// Corruption says why a delivered frame is broken, so receivers can
// attribute the wasted reception energy to the right loss category.
type Corruption int

const (
	// Clean marks an intact frame.
	Clean Corruption = iota
	// Collided marks a frame corrupted by a concurrent transmission.
	Collided
	// BitError marks a frame corrupted by channel noise.
	BitError
	// Jammed marks a frame corrupted by external interference (a
	// non-network emitter saturating the band during a fault window).
	Jammed
	// Truncated marks a frame whose transmitter died mid-burst; the
	// partial frame on the air cannot pass any receiver's CRC.
	Truncated
)

// String names the corruption cause.
func (c Corruption) String() string {
	switch c {
	case Clean:
		return "clean"
	case Collided:
		return "collided"
	case BitError:
		return "bit-error"
	case Jammed:
		return "jammed"
	case Truncated:
		return "truncated"
	default:
		return fmt.Sprintf("corruption(%d)", int(c))
	}
}

// Transceiver is the channel's view of a radio.
type Transceiver interface {
	// ChannelID uniquely names the radio on the medium.
	ChannelID() string
	// ListeningSince reports the instant the radio last entered a
	// receive-capable state, and false when it cannot currently capture
	// a frame. A radio must have been listening since before the frame's
	// first preamble bit to capture it.
	ListeningSince() (sim.Time, bool)
	// Deliver hands the radio a frame image at end-of-frame. image is
	// the on-air serialisation (address+payload+CRC); cause reports
	// in-flight corruption. The image of a corrupted frame has bits
	// flipped, so the receiver's own CRC check fails naturally.
	Deliver(image []byte, cause Corruption)
	// EndBurst tells the sender that its frame has left the air, after
	// the last delivery of that frame, handing back the word the sender
	// passed to BeginTx.
	EndBurst(word uint64)
}

// Link describes one directed path between two radios.
type Link struct {
	// Connected reports whether to can hear from at all.
	Connected bool
	// BER is the per-bit error probability applied to frames on this
	// path.
	BER float64
	// Burst, when non-nil, replaces the uniform BER with a two-state
	// Gilbert-Elliott error process.
	Burst *BurstModel
}

// BurstModel is a Gilbert-Elliott channel: the link alternates between a
// good and a bad state with per-frame transition probabilities, and each
// state has its own bit error rate. On-body links are bursty — posture
// changes and gait shadow the path for runs of frames rather than
// flipping independent bits — and burstiness interacts with the MAC's
// retry logic very differently from a uniform BER of the same average.
type BurstModel struct {
	// PGoodToBad and PBadToGood are the per-frame transition
	// probabilities.
	PGoodToBad float64
	PBadToGood float64
	// BERGood and BERBad are the per-bit error rates in each state.
	BERGood float64
	BERBad  float64
}

// MeanBER reports the long-run average bit error rate of the process.
func (b BurstModel) MeanBER() float64 {
	if approx.Unset(b.PGoodToBad) && approx.Unset(b.PBadToGood) {
		return b.BERGood
	}
	pBad := b.PGoodToBad / (b.PGoodToBad + b.PBadToGood)
	return (1-pBad)*b.BERGood + pBad*b.BERBad
}

// Stats counts medium-level events.
type Stats struct {
	Transmissions uint64 // frames put on the air
	Collisions    uint64 // frames corrupted by overlap
	Deliveries    uint64 // frame copies handed to listening radios
	CorruptCopies uint64 // delivered copies that were corrupted
	MissedStart   uint64 // copies lost because the radio tuned in mid-frame
	JammedFrames  uint64 // frames corrupted by an interference burst
	Truncated     uint64 // frames whose transmitter died mid-burst
	BlackoutDrops uint64 // copies suppressed by a link blackout window
}

type transmission struct {
	id    int    // the record's index in Channel.txs
	port  int    // the sender's attach index
	word  uint64 // handed back to the sender by EndBurst
	image []byte
	start sim.Time
	end   sim.Time
	cause Corruption // Clean until an overlap corrupts it
}

// path is the state of one directed path.
type path struct {
	link Link
	// bad is the Gilbert-Elliott state of a bursty link.
	bad bool
	// blackout counts the open blackout windows; a positive depth
	// suppresses delivery entirely (the path is shadowed). Depth
	// counting lets overlapping fault windows compose.
	blackout int
}

// Channel is the shared medium. All methods must run on the simulation
// goroutine.
type Channel struct {
	k *sim.Kernel
	// nodes holds the attached radios in attach order, the order a frame
	// is delivered in; row[i] is nodes[i]'s path-table index.
	nodes []Transceiver
	row   []int
	// byName numbers every name the medium knows: each attached radio's
	// and each name SetLink or SetBlackout used, attached yet or not.
	// Names are resolved only there and in Attach.
	byName map[string]int
	// paths is the dim×dim table of directed paths, row-major by sender,
	// over every indexed name. It stays nil until the first SetLink or
	// SetBlackout, so the default fully connected, error-free BAN never
	// reads it.
	paths []path
	dim   int
	// jamDepth counts active interference bursts; while positive, every
	// frame on the air is corrupted.
	jamDepth int
	active   []*transmission
	stats    Stats
	// txPool recycles transmission records (and their image buffers)
	// once finishTx has delivered them, so steady-state traffic stops
	// allocating per frame. corruptBuf is the scratch a corrupted copy
	// is built in; receivers copy the image out synchronously inside
	// Deliver, so one buffer serves every delivery.
	txPool     []*transmission
	corruptBuf []byte
	// txs holds every transmission record by id: an end-of-frame event
	// carries its record's id in the argument word, for finish, the
	// handler bound once in New.
	txs    []*transmission
	finish sim.Handler
	// inline backs the first attachments, transmission records and
	// image buffers, so a body-area network of a few radios grows none
	// of them.
	inline struct {
		nodes             [inlinePorts]Transceiver
		row               [inlinePorts]int
		active, pool, txs [inlineTx]*transmission
		tx                [inlineTx]transmission
		images            [inlineTx + 1][inlineImage]byte // the last one is corruptBuf's
	}
}

// The medium's inline storage holds inlinePorts attachments and
// inlineTx transmission records, each with an image buffer of
// inlineImage bytes, room for a whole nRF2401 frame (a longer image
// outgrows its buffer by append).
const (
	inlinePorts = 8
	inlineTx    = 4
	inlineImage = 32
)

// New creates an empty medium on the kernel.
func New(k *sim.Kernel) *Channel {
	c := &Channel{k: k, byName: make(map[string]int)}
	in := &c.inline
	c.nodes, c.row = in.nodes[:0], in.row[:0]
	c.active, c.txPool, c.txs = in.active[:0], in.pool[:0], in.txs[:0]
	c.corruptBuf = in.images[inlineTx][:0]
	c.finish = c.finishTx
	return c
}

// Attach adds a radio to the medium and returns its port, the attach
// index the radio names itself by in BeginTx and AbortTx. IDs must be
// unique. Paths already set for the radio's ID apply to it.
func (c *Channel) Attach(t Transceiver) int {
	id := t.ChannelID()
	i := c.indexOf(id)
	if slices.Contains(c.row, i) {
		panic(fmt.Sprintf("channel: duplicate transceiver %q", id))
	}
	c.nodes = append(c.nodes, t)
	c.row = append(c.row, i)
	return len(c.nodes) - 1
}

// indexOf returns name's path-table index, numbering a new name and
// growing an allocated table to cover it.
func (c *Channel) indexOf(name string) int {
	i, ok := c.byName[name]
	if !ok {
		i = len(c.byName)
		c.byName[name] = i
		if c.paths != nil {
			c.resize()
		}
	}
	return i
}

// path returns the directed path from -> to, allocating the table on
// first use.
func (c *Channel) path(from, to string) *path {
	f, t := c.indexOf(from), c.indexOf(to)
	if c.paths == nil {
		c.resize()
	}
	return &c.paths[f*c.dim+t]
}

// resize reallocates the path table over every indexed name, keeping the
// existing paths; new paths are fully connected and error-free.
func (c *Channel) resize() {
	n := len(c.byName)
	paths := make([]path, n*n)
	for i := range paths {
		paths[i].link.Connected = true
	}
	for f := 0; f < c.dim; f++ {
		copy(paths[f*n:], c.paths[f*c.dim:(f+1)*c.dim])
	}
	c.paths, c.dim = paths, n
}

// SetLink overrides the path from -> to. Paths default to
// {Connected: true, BER: 0} (a fully connected, error-free BAN).
func (c *Channel) SetLink(from, to string, l Link) {
	c.path(from, to).link = l
}

// SetBlackout opens (active) or closes an additional blackout window on
// the directed path from -> to. While any window is open the path
// delivers nothing — not even corrupted copies — regardless of the
// SetLink parameters, so blackouts compose with BER/burst models instead
// of overwriting them. Closing more windows than were opened is a no-op.
func (c *Channel) SetBlackout(from, to string, active bool) {
	p := c.path(from, to)
	if active {
		p.blackout++
	} else if p.blackout > 0 {
		p.blackout--
	}
}

// SetJamming opens (active) or closes an external interference burst.
// While any burst is open every frame put on the air is corrupted, and
// frames already in flight when the burst starts are corrupted too.
func (c *Channel) SetJamming(active bool) {
	if !active {
		if c.jamDepth > 0 {
			c.jamDepth--
		}
		return
	}
	c.jamDepth++
	now := c.k.Now()
	for _, tx := range c.active {
		if tx.end > now && tx.cause == Clean {
			tx.cause = Jammed
			c.stats.JammedFrames++
		}
	}
}

// AbortTx marks every in-flight frame from the given port as truncated:
// the transmitter died mid-burst, so the partial frame fails every
// receiver's CRC. Delivery timing is unchanged (listeners were committed
// to the frame's airtime either way), and EndBurst still runs at the
// frame's end: the sender tells a crashed burst's word by its own
// generation.
func (c *Channel) AbortTx(port int) {
	now := c.k.Now()
	for _, tx := range c.active {
		if tx.port == port && tx.end > now && tx.cause == Clean {
			tx.cause = Truncated
			c.stats.Truncated++
		}
	}
}

// Stats returns a copy of the medium counters.
func (c *Channel) Stats() Stats { return c.stats }

// BeginTx puts a frame on the air from the radio attached at port for
// the given airtime. Any temporal overlap with another in-flight frame
// corrupts both (single interference domain). Delivery to each listening
// radio happens at end-of-frame, in the same event that then ends the
// sender's burst with EndBurst(word).
//
//hot:path
func (c *Channel) BeginTx(port int, image []byte, airtime sim.Time, word uint64) {
	if airtime <= 0 {
		panic("channel: non-positive airtime")
	}
	if uint(port) >= uint(len(c.nodes)) {
		panic(fmt.Sprintf("channel: transmission from unattached port %d", port))
	}
	now := c.k.Now()
	var tx *transmission
	if n := len(c.txPool); n > 0 {
		tx = c.txPool[n-1]
		c.txPool = c.txPool[:n-1]
	} else {
		tx = c.newTransmission()
	}
	tx.port, tx.word = port, word
	tx.image = append(tx.image[:0], image...)
	tx.start = now
	tx.end = now + airtime
	tx.cause = Clean
	// External interference corrupts the frame outright.
	if c.jamDepth > 0 {
		tx.cause = Jammed
		c.stats.JammedFrames++
	}
	// Collision detection against every frame still on the air. Frames
	// already corrupted by another mechanism keep their original cause.
	for _, other := range c.active {
		if other.end > now { // overlap in time
			if other.cause == Clean {
				other.cause = Collided
				c.stats.Collisions++
			}
			if tx.cause == Clean {
				tx.cause = Collided
				c.stats.Collisions++
			}
		}
	}
	c.active = append(c.active, tx)
	c.stats.Transmissions++
	c.k.ScheduleArgAt(tx.end, c.finish, uint64(tx.id))
}

// newTransmission grows the transmission pool by one record: an inline
// one while they last.
//
//lint:allow hotalloc pool-miss growth only; steady state recycles transmissions through txPool
func (c *Channel) newTransmission() *transmission {
	id := len(c.txs)
	var tx *transmission
	if id < inlineTx {
		tx = &c.inline.tx[id]
		tx.image = c.inline.images[id][:0]
	} else {
		tx = &transmission{}
	}
	tx.id = id
	c.txs = append(c.txs, tx)
	return tx
}

// finishTx delivers the frame whose end-of-frame event is firing, which
// has left the air, to every radio that can hear it, recycles its
// record, then ends the sender's burst.
//
//hot:path
func (c *Channel) finishTx(k *sim.Kernel) {
	tx := c.txs[k.Arg()]
	// Drop tx from the active list.
	for i, a := range c.active {
		if a == tx {
			c.active = append(c.active[:i], c.active[i+1:]...)
			break
		}
	}
	var out []path // the sender's row of paths
	if c.paths != nil {
		src := c.row[tx.port]
		out = c.paths[src*c.dim : (src+1)*c.dim]
	}
	for j, rx := range c.nodes {
		if j == tx.port {
			continue
		}
		var p *path
		if out != nil {
			p = &out[c.row[j]]
			if !p.link.Connected {
				continue
			}
			if p.blackout > 0 {
				c.stats.BlackoutDrops++
				continue
			}
		}
		since, listening := rx.ListeningSince()
		if !listening {
			continue
		}
		if since > tx.start {
			// Tuned in after the preamble: the frame is unreceivable,
			// but the radio burned RX current regardless (that time is
			// already metered; it will surface as idle listening).
			c.stats.MissedStart++
			continue
		}
		cause := tx.cause
		image := tx.image
		var ber float64
		if p != nil {
			ber = c.frameBER(p)
		}
		if cause == Clean && ber > 0 {
			bits := len(image) * 8
			pClean := math.Pow(1-ber, float64(bits))
			if c.k.Rand().Float64() > pClean {
				cause = BitError
			}
		}
		if cause != Clean {
			image = c.corruptCopy(image)
			c.stats.CorruptCopies++
		}
		c.stats.Deliveries++
		rx.Deliver(image, cause)
	}
	c.txPool = append(c.txPool, tx)
	c.nodes[tx.port].EndBurst(tx.word)
}

// frameBER reports the bit error rate one frame sees on path p, first
// evolving a bursty link's Gilbert-Elliott state.
func (c *Channel) frameBER(p *path) float64 {
	b := p.link.Burst
	if b == nil {
		return p.link.BER
	}
	if p.bad {
		if c.k.Rand().Float64() < b.PBadToGood {
			p.bad = false
		}
	} else if c.k.Rand().Float64() < b.PGoodToBad {
		p.bad = true
	}
	if p.bad {
		return b.BERBad
	}
	return b.BERGood
}

// corruptCopy flips one to three bits of a copy of image so that the
// receiver's CRC check fails the way real corrupted frames do. The copy
// lives in the channel's scratch buffer and is only valid until the
// next corruptCopy call; receivers take their own copy inside Deliver.
func (c *Channel) corruptCopy(image []byte) []byte {
	c.corruptBuf = append(c.corruptBuf[:0], image...)
	out := c.corruptBuf
	flips := 1 + c.k.Rand().Intn(3)
	var flipped [3]int
	for i := 0; i < flips; i++ {
		bit := c.k.Rand().Intn(len(out) * 8)
		for contains(flipped[:i], bit) { // distinct bits: re-flipping would undo the damage
			bit = c.k.Rand().Intn(len(out) * 8)
		}
		flipped[i] = bit
		out[bit/8] ^= 1 << uint(bit%8)
	}
	return out
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Busy reports whether any frame is currently on the air.
func (c *Channel) Busy() bool {
	now := c.k.Now()
	for _, a := range c.active {
		if a.end > now {
			return true
		}
	}
	return false
}
