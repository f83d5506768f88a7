// Package wlan simulates a small infrastructure WLAN that uses CoS for the
// application the paper's introduction motivates: access coordination. An
// AP streams downlink data and piggybacks each next transmission grant
// (station + slot count) as a free control message inside the data packet;
// the baseline design spends airtime on explicit grant frames instead.
//
// Every frame — data, CoS control, and explicit grants — crosses the real
// simulated PHY, so grant losses, data losses, and detection errors all
// emerge from the same mechanisms the rest of the repository measures.
package wlan

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"

	"cos"
	"cos/internal/obs"
	"cos/internal/scenario"
)

// Coordination metrics: grant delivery split by transport and the airtime
// ledger the CoS-vs-explicit comparison is built on.
var (
	mGrantsDelivered = obs.Default().CounterFamily("wlan_grants_delivered_total",
		"Coordination grants delivered, by transport (cos or explicit).", "transport")
	mGrantsLost = obs.Default().CounterFamily("wlan_grants_lost_total",
		"Coordination grants lost, by transport (cos or explicit).", "transport")
	mRounds = obs.Default().Counter("wlan_rounds_total",
		"Scheduling rounds executed.")
	mIdleRounds = obs.Default().Counter("wlan_idle_rounds_total",
		"Rounds idled because the previous grant never arrived.")
	mDataAirtime = obs.Default().Gauge("wlan_data_airtime_seconds",
		"Accumulated airtime spent on data frames.")
	mControlAirtime = obs.Default().Gauge("wlan_control_airtime_seconds",
		"Accumulated airtime spent on explicit coordination frames.")
	mGrantedStation = obs.Default().CounterFamily("wlan_station_grants_total",
		"Grants issued per station.", "station")
)

// StationID identifies a station (1-based).
type StationID int

// Grant is one coordination message: the station granted the next
// transmission opportunity and its length in slots. It encodes in 16 bits
// (4 bits station, 8 bits slots, 4 bits sequence).
type Grant struct {
	// Station is the granted station (1..15).
	Station StationID
	// Slots is the TXOP length in slots (0..255).
	Slots int
	// Seq is a 4-bit sequence number for duplicate detection.
	Seq int
}

// GrantBits is the encoded grant length.
const GrantBits = 16

// Bits encodes the grant MSB-first.
func (g Grant) Bits() ([]byte, error) {
	if g.Station < 1 || g.Station > 15 {
		return nil, fmt.Errorf("wlan: station %d outside [1,15]", g.Station)
	}
	if g.Slots < 0 || g.Slots > 255 {
		return nil, fmt.Errorf("wlan: slots %d outside [0,255]", g.Slots)
	}
	if g.Seq < 0 || g.Seq > 15 {
		return nil, fmt.Errorf("wlan: seq %d outside [0,15]", g.Seq)
	}
	out := make([]byte, 0, GrantBits)
	push := func(v, n int) {
		for i := n - 1; i >= 0; i-- {
			out = append(out, byte((v>>i)&1))
		}
	}
	push(int(g.Station), 4)
	push(g.Slots, 8)
	push(g.Seq, 4)
	return out, nil
}

// ParseGrant decodes a grant from at least GrantBits bits.
func ParseGrant(bits []byte) (Grant, error) {
	if len(bits) < GrantBits {
		return Grant{}, fmt.Errorf("wlan: grant needs %d bits, got %d", GrantBits, len(bits))
	}
	pop := func(off, n int) int {
		v := 0
		for i := 0; i < n; i++ {
			v = v<<1 | int(bits[off+i])
		}
		return v
	}
	g := Grant{
		Station: StationID(pop(0, 4)),
		Slots:   pop(4, 8),
		Seq:     pop(12, 4),
	}
	if g.Station < 1 {
		return Grant{}, fmt.Errorf("wlan: decoded station 0")
	}
	return g, nil
}

// Coordination selects how grants reach stations.
type Coordination int

const (
	// CoordCoS piggybacks grants on data packets via symbol silence.
	CoordCoS Coordination = iota + 1
	// CoordExplicit sends each grant as its own frame at the base rate.
	CoordExplicit
)

// String names the scheme.
func (c Coordination) String() string {
	switch c {
	case CoordCoS:
		return "CoS"
	case CoordExplicit:
		return "explicit"
	default:
		return fmt.Sprintf("Coordination(%d)", int(c))
	}
}

// Config parameterizes a network.
type Config struct {
	// Stations is the station count (1..15; default 3).
	Stations int
	// SNRdB is each downlink's true SNR (default 18).
	SNRdB float64
	// PayloadBytes is the data frame payload (default 1024).
	PayloadBytes int
	// Coordination selects the grant transport (default CoordCoS).
	Coordination Coordination
	// Seed drives all randomness.
	Seed int64
	// Scenario is an optional scenario reference ("pulse",
	// "hybrid-bscpec:0.2,0.05,25", ...) applied to every station link; ""
	// selects the default world (see internal/scenario).
	Scenario string
	// LinkOptions are appended to every station link's options. The serve
	// layer passes its exchange observer here (the flight-recorder hook
	// that aggregates per-stage timings and captures traces), which has no
	// effect on the simulation itself.
	LinkOptions []cos.Option
}

func (c *Config) setDefaults() error {
	if c.Stations == 0 {
		c.Stations = 3
	}
	if c.Stations < 1 || c.Stations > 15 {
		return fmt.Errorf("wlan: station count %d outside [1,15]", c.Stations)
	}
	if c.SNRdB == 0 {
		c.SNRdB = 18
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 1024
	}
	if c.PayloadBytes < 16 {
		return fmt.Errorf("wlan: payload %d bytes too small", c.PayloadBytes)
	}
	if c.Coordination == 0 {
		c.Coordination = CoordCoS
	}
	if c.Coordination != CoordCoS && c.Coordination != CoordExplicit {
		return fmt.Errorf("wlan: unknown coordination scheme %d", int(c.Coordination))
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// explicitGrantAirtime is the cost of one explicit grant frame: PLCP
// preamble (16 us) + SIGNAL (4 us) + a 14-byte frame at 6 Mb/s (5 OFDM
// symbols, 20 us) + SIFS (16 us).
const explicitGrantAirtime = 16e-6 + 4e-6 + 20e-6 + 16e-6

// Network is a running WLAN simulation.
type Network struct {
	cfg   Config
	links []*cos.Link // downlink per station
	rng   *rand.Rand
	seq   int
}

// New builds a network; every station gets an independent channel variant
// of Position B at the configured SNR.
func New(cfg Config) (*Network, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	for s := 0; s < cfg.Stations; s++ {
		opts := []cos.Option{
			cos.WithPosition(cos.PositionB),
			cos.WithSNR(cfg.SNRdB),
			cos.WithSeed(cfg.Seed + int64(s)*101),
			cos.WithChannelVariant(int64(s + 1)),
			// Grants are validated by the control framing CRC: the station
			// never needs genie knowledge of what the AP sent.
			cos.WithControlFraming(),
		}
		if cfg.Coordination == CoordExplicit {
			opts = append(opts, cos.WithoutCoS())
		}
		if cfg.Scenario != "" {
			ref, err := scenario.ParseRef(cfg.Scenario)
			if err != nil {
				return nil, err
			}
			opts = append(opts, cos.WithScenario(ref.Name, ref.Params...))
		}
		link, err := cos.NewLink(append(opts, cfg.LinkOptions...)...)
		if err != nil {
			return nil, err
		}
		n.links = append(n.links, link)
	}
	return n, nil
}

// Report aggregates a simulation run.
type Report struct {
	// Rounds is the number of scheduling rounds executed.
	Rounds int
	// DataDelivered and DataLost count data frames.
	DataDelivered, DataLost int
	// GrantsDelivered and GrantsLost count coordination messages.
	GrantsDelivered, GrantsLost int
	// DataAirtime and ControlAirtime are seconds spent on each.
	DataAirtime, ControlAirtime float64
	// PerStation counts data deliveries by station (index 0 = station 1).
	PerStation []int
}

// ControlOverhead returns the fraction of total airtime spent on
// coordination.
func (r *Report) ControlOverhead() float64 {
	total := r.DataAirtime + r.ControlAirtime
	if total == 0 {
		return 0
	}
	return r.ControlAirtime / total
}

// GrantDeliveryRate returns the fraction of grants that arrived.
func (r *Report) GrantDeliveryRate() float64 {
	total := r.GrantsDelivered + r.GrantsLost
	if total == 0 {
		return 0
	}
	return float64(r.GrantsDelivered) / float64(total)
}

// packetAirtime returns the duration of a data frame at the mode the link
// last used.
func packetAirtime(ex *cos.Exchange, payloadBytes int) float64 {
	symbols := ex.Mode.SymbolsForPSDU(payloadBytes + 4)
	return (320.0 + float64(symbols*80)) / 20e6
}

// RunContext executes rounds of the downlink scheduler: each round sends one
// data frame to the current station carrying (or accompanied by) the grant
// that names the next station. A lost grant idles the next round's slot,
// exactly the cost real coordination loss incurs. The scheduler polls ctx
// once per round and returns ctx.Err() mid-simulation when it fires, so
// CLIs can honor SIGINT and the serve layer can enforce job deadlines.
func (n *Network) RunContext(ctx context.Context, rounds int) (*Report, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("wlan: rounds %d must be >= 1", rounds)
	}
	rep := &Report{Rounds: rounds, PerStation: make([]int, n.cfg.Stations)}
	data := make([]byte, n.cfg.PayloadBytes)

	current := StationID(1)
	granted := true // round 0's grant is assumed delivered out of band
	for r := 0; r < rounds; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next := StationID(int(current)%n.cfg.Stations + 1)
		n.seq = (n.seq + 1) & 0xF
		grant := Grant{Station: next, Slots: 1 + n.rng.Intn(8), Seq: n.seq}
		mRounds.Inc()
		mGrantedStation.With(strconv.Itoa(int(next))).Inc()

		if !granted {
			// The previous grant never arrived: the slot idles and the AP
			// re-issues the grant explicitly (recovery always costs an
			// explicit frame, whichever scheme is in use).
			rep.ControlAirtime += explicitGrantAirtime
			mControlAirtime.Add(explicitGrantAirtime)
			mIdleRounds.Inc()
			granted = true
			continue
		}

		link := n.links[int(current)-1]
		n.rng.Read(data)

		var ctrl []byte
		if n.cfg.Coordination == CoordCoS {
			bits, err := grant.Bits()
			if err != nil {
				return nil, err
			}
			budget, err := link.MaxControlBits(len(data))
			if err != nil {
				return nil, err
			}
			if budget >= GrantBits {
				ctrl = bits
			}
		}
		ex, err := link.Send(data, ctrl)
		if err != nil {
			return nil, err
		}
		rep.DataAirtime += packetAirtime(ex, n.cfg.PayloadBytes)
		mDataAirtime.Add(packetAirtime(ex, n.cfg.PayloadBytes))
		if ex.DataOK {
			rep.DataDelivered++
			rep.PerStation[int(current)-1]++
		} else {
			rep.DataLost++
		}

		switch {
		case n.cfg.Coordination == CoordCoS && ctrl != nil:
			// Grant rides for free inside the data frame; the station
			// trusts it only when the framing CRC verifies.
			if ex.ControlVerified {
				if got, err := ParseGrant(ex.ControlPayload); err == nil && got == grant {
					rep.GrantsDelivered++
					mGrantsDelivered.With("cos").Inc()
					granted = true
				} else {
					rep.GrantsLost++
					mGrantsLost.With("cos").Inc()
					granted = false
				}
			} else {
				rep.GrantsLost++
				mGrantsLost.With("cos").Inc()
				granted = false
			}
		case n.cfg.Coordination == CoordCoS:
			// Budget too small this packet: fall back to an explicit frame.
			rep.ControlAirtime += explicitGrantAirtime
			mControlAirtime.Add(explicitGrantAirtime)
			delivered, err := n.sendExplicitGrant(link)
			if err != nil {
				return nil, err
			}
			granted = delivered
			if delivered {
				rep.GrantsDelivered++
				mGrantsDelivered.With("explicit").Inc()
			} else {
				rep.GrantsLost++
				mGrantsLost.With("explicit").Inc()
			}
		default:
			rep.ControlAirtime += explicitGrantAirtime
			mControlAirtime.Add(explicitGrantAirtime)
			delivered, err := n.sendExplicitGrant(link)
			if err != nil {
				return nil, err
			}
			granted = delivered
			if delivered {
				rep.GrantsDelivered++
				mGrantsDelivered.With("explicit").Inc()
			} else {
				rep.GrantsLost++
				mGrantsLost.With("explicit").Inc()
			}
		}
		current = next
	}
	return rep, nil
}

// sendExplicitGrant pushes a 14-byte grant frame through the station's
// link (data-only, base conditions) and reports delivery.
func (n *Network) sendExplicitGrant(link *cos.Link) (bool, error) {
	frame := make([]byte, 14)
	n.rng.Read(frame)
	ex, err := link.Send(frame, nil)
	if err != nil {
		return false, err
	}
	return ex.DataOK, nil
}
