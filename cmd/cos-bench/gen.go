package main

import (
	"math"
	"math/rand"
	"slices"
	"time"

	"cos/internal/experiments"
	"cos/internal/serve"
)

// Input streams. Each workload input is drawn from its own stream of the
// run's seed, so adding draws to one stream never shifts another, and the
// inputs never depend on how the program under test behaves.
const (
	streamLinkWarmup uint64 = iota + 1
	streamLinkInputs
	streamColdWarmup
	streamColdOpen
	streamColdSchedule
	streamColdClosed
	streamWarmSet
	streamWarmClients
	streamFigureSeeds
	streamKernels
)

// splitmix64 is the SplitMix64 finalizer: a bijective 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive maps (run seed, stream, index) to a positive int63.
func derive(seed int64, stream, i uint64) int64 {
	return int64(splitmix64(splitmix64(splitmix64(uint64(seed))^stream)^i)>>1) | 1
}

func rngFor(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(derive(seed, stream, 0)))
}

// The serve job mix. Full size is the documented traffic; tiny keeps
// every kind and field but shrinks each job to a few milliseconds, for
// smoke runs and set-up warm-ups.
const (
	figureID        = "fig3"
	figureTaskScale = 0.1
	tinyFigureScale = 0.0125
)

// kinds lists the job kinds the mix deals.
var kinds = []serve.Kind{serve.KindLink, serve.KindStream, serve.KindWLAN, serve.KindFigureTask}

// deck deals values in shuffled rounds: every value once per round.
type deck[T any] struct {
	vals, left []T
}

func newDeck[T any](vals ...T) *deck[T] { return &deck[T]{vals: vals} }

func (d *deck[T]) deal(r *rand.Rand) T {
	if len(d.left) == 0 {
		d.left = append(d.left, d.vals...)
		r.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	v := d.left[0]
	d.left = d.left[1:]
	return v
}

// params are one kind's parameter decks.
type params struct {
	payload, ctrl, task *deck[int]
	snr                 *deck[float64]
	pos                 *deck[string]
	mobile              *deck[bool]
}

func newParams(tasks int) *params {
	var snrs []float64
	for snr := 10.0; snr <= 24; snr += 0.5 {
		snrs = append(snrs, snr)
	}
	idx := make([]int, max(tasks, 1))
	for i := range idx {
		idx[i] = i
	}
	return &params{
		payload: newDeck(100, 256),
		ctrl:    newDeck(8, 16, 32),
		task:    newDeck(idx...),
		snr:     newDeck(snrs...),
		pos:     newDeck("A", "B", "C"),
		mobile:  newDeck(true, true, true, false, false, false, false, false, false, false),
	}
}

// specGen deals serve specs. Kinds come from a shuffled deck of ten (four
// link, two stream, two wlan, two figure_task), and each kind's
// parameters from decks of their own, so every run sees nearly the same
// multiset of job sizes, in its own order: the work per job varies far
// less from seed to seed than with independent draws. Every spec carries
// a seed of its own, derived from (run seed, stream, index), so no two
// specs of a run share a digest and none can hit the result cache.
type specGen struct {
	seed   int64
	stream uint64
	tiny   bool
	rng    *rand.Rand
	n      uint64
	kinds  *deck[serve.Kind]
	params map[serve.Kind]*params
}

func newSpecGen(seed int64, stream uint64, tiny bool) *specGen {
	scale := figureTaskScale
	if tiny {
		scale = tinyFigureScale
	}
	tasks := 0
	if ts, ok := experiments.Tasks(figureID, experiments.RunOptions{Scale: scale, Seed: 1}); ok {
		tasks = ts.NumTasks()
	}
	g := &specGen{
		seed: seed, stream: stream, tiny: tiny, rng: rngFor(seed, stream),
		kinds: newDeck(
			serve.KindLink, serve.KindLink, serve.KindLink, serve.KindLink,
			serve.KindStream, serve.KindStream,
			serve.KindWLAN, serve.KindWLAN,
			serve.KindFigureTask, serve.KindFigureTask),
		params: map[serve.Kind]*params{},
	}
	for _, k := range kinds {
		g.params[k] = newParams(tasks)
	}
	return g
}

// next deals the next spec of the mix.
func (g *specGen) next() serve.Spec { return g.of(g.kinds.deal(g.rng)) }

// of deals a spec of kind k.
func (g *specGen) of(k serve.Kind) serve.Spec {
	r, p := g.rng, g.params[k]
	g.n++
	s := serve.Spec{Kind: k, Seed: derive(g.seed, g.stream, g.n)}
	switch k {
	case serve.KindLink:
		s.Packets, s.PayloadBytes, s.SNRdB, s.Position, s.Mobile, s.ControlBits =
			50, p.payload.deal(r), p.snr.deal(r), p.pos.deal(r), p.mobile.deal(r), p.ctrl.deal(r)
		if g.tiny {
			s.Packets = 2
		}
	case serve.KindStream:
		s.Sends, s.PayloadBytes, s.SNRdB, s.Position, s.Mobile = 5, p.payload.deal(r), p.snr.deal(r), p.pos.deal(r), p.mobile.deal(r)
		if g.tiny {
			s.Sends = 1
		}
	case serve.KindWLAN:
		s.Stations, s.Rounds, s.PayloadBytes, s.SNRdB = 3, 20, p.payload.deal(r), p.snr.deal(r)
		if g.tiny {
			s.Rounds = 2
		}
	case serve.KindFigureTask:
		s.Figure, s.Scale, s.Task = figureID, figureTaskScale, p.task.deal(r)
		if g.tiny {
			s.Scale = tinyFigureScale
		}
	}
	return s
}

// arrival is one open-loop submission: a spec due at offset at from the
// start of the phase.
type arrival struct {
	at   time.Duration
	spec serve.Spec
}

// poissonSchedule draws round(rate*dur) arrivals over dur: a Poisson
// process conditioned on its count, that is, that many uniform times in
// sorted order. Fixing the count keeps every seed's load, and the sample
// count behind the phase's percentiles, the same. Times come from one
// stream, specs from another.
func poissonSchedule(seed int64, rate float64, dur time.Duration, tiny bool) []arrival {
	times := rngFor(seed, streamColdSchedule)
	specs := newSpecGen(seed, streamColdOpen, tiny)
	out := make([]arrival, int(math.Round(rate*dur.Seconds())))
	at := make([]time.Duration, len(out))
	for i := range at {
		at[i] = time.Duration(times.Float64() * float64(dur))
	}
	slices.Sort(at)
	for i := range out {
		out[i] = arrival{at: at[i], spec: specs.next()}
	}
	return out
}

// linkInputs deals link-1k's inputs: a payload and a control message per
// exchange. It always draws the longest control message, and the caller
// sends the prefix the link's adaptive budget admits, so the inputs do
// not depend on the budget the program computes.
type linkInputs struct{ rng *rand.Rand }

// next fills payload and ctrl (len linkMaxCtrl) and returns how many
// control bits this exchange asks for.
func (g *linkInputs) next(payload, ctrl []byte) int {
	g.rng.Read(payload)
	want := 4 * (1 + g.rng.Intn(linkMaxCtrl/4))
	for i := range ctrl {
		ctrl[i] = byte(g.rng.Intn(2))
	}
	return want
}
