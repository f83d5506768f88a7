package scenario

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrUnknown is wrapped by Resolve and the Scenario constructors when a
// scenario, channel, interferer, or embedding name has no registration.
var ErrUnknown = errors.New("unknown name")

// ChannelFactory builds a channel model for one geometry. params is the
// scenario's channel parameter vector (empty = defaults); factories must
// reject vectors they cannot honor.
type ChannelFactory func(g Geometry, params []float64) (ChannelModel, error)

// InterfererFactory builds an interferer from a parameter vector.
type InterfererFactory func(params []float64) (Interferer, error)

// EmbeddingFactory builds a fresh embedding instance (one per pipeline
// node) from a parameter vector.
type EmbeddingFactory func(params []float64) (Embedding, error)

var (
	mu          sync.RWMutex
	channels    = map[string]ChannelFactory{}
	interferers = map[string]InterfererFactory{}
	embeddings  = map[string]EmbeddingFactory{}
	scenarios   = map[string]Scenario{}
)

// RegisterChannel registers a channel model factory under name. Panics on
// duplicates — registration is an init-time programming act.
func RegisterChannel(name string, f ChannelFactory) {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := channels[name]; dup {
		panic("scenario: duplicate channel " + name)
	}
	channels[name] = f
}

// RegisterInterferer registers an interferer factory under name.
func RegisterInterferer(name string, f InterfererFactory) {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := interferers[name]; dup {
		panic("scenario: duplicate interferer " + name)
	}
	interferers[name] = f
}

// RegisterEmbedding registers an embedding factory under name.
func RegisterEmbedding(name string, f EmbeddingFactory) {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := embeddings[name]; dup {
		panic("scenario: duplicate embedding " + name)
	}
	embeddings[name] = f
}

// Register registers a named scenario preset. The preset's component names
// are resolved lazily (at NewChannel/NewInterferer/NewEmbedding time), so a
// preset may reference components registered by other packages.
func Register(s Scenario) {
	if s.Name == "" {
		panic("scenario: preset with empty name")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := scenarios[s.Name]; dup {
		panic("scenario: duplicate scenario " + s.Name)
	}
	scenarios[s.Name] = s
}

func channelFactory(name string) (ChannelFactory, error) {
	mu.RLock()
	defer mu.RUnlock()
	f, ok := channels[name]
	if !ok {
		return nil, fmt.Errorf("scenario: channel %q (known: %v): %w", name, namesLocked(channels), ErrUnknown)
	}
	return f, nil
}

func interfererFactory(name string) (InterfererFactory, error) {
	mu.RLock()
	defer mu.RUnlock()
	f, ok := interferers[name]
	if !ok {
		return nil, fmt.Errorf("scenario: interferer %q (known: %v): %w", name, namesLocked(interferers), ErrUnknown)
	}
	return f, nil
}

func embeddingFactory(name string) (EmbeddingFactory, error) {
	mu.RLock()
	defer mu.RUnlock()
	f, ok := embeddings[name]
	if !ok {
		return nil, fmt.Errorf("scenario: embedding %q (known: %v): %w", name, namesLocked(embeddings), ErrUnknown)
	}
	return f, nil
}

// Resolve looks up a scenario preset by name and routes optional user
// parameters to the component the preset declares. An empty name selects
// the default scenario.
func Resolve(name string, params ...float64) (Scenario, error) {
	if name == "" {
		name = DefaultName
	}
	mu.RLock()
	s, ok := scenarios[name]
	mu.RUnlock()
	if !ok {
		return Scenario{}, fmt.Errorf("scenario: scenario %q (known: %v): %w", name, Names(), ErrUnknown)
	}
	return s.routeParams(params)
}

// Names lists registered scenario names, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	return namesLocked(scenarios)
}

// List returns all registered scenario presets sorted by name — the
// deterministic enumeration behind `cos-sim -list-scenarios` and
// cos-serve's GET /scenarios.
func List() []Scenario {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Scenario, 0, len(scenarios))
	for _, s := range scenarios {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FormatList renders the registered presets as a stable sorted text
// listing — the shared body of `cos-sim -list-scenarios`. Each preset
// prints its canonical reference (default parameters spelled out), its
// component names with defaults made explicit, and its description.
func FormatList() string {
	var b strings.Builder
	for _, s := range List() {
		ref := Ref{Name: s.Name, Params: s.Params()}.String()
		ch := s.Channel
		if ch == "" {
			ch = DefaultChannel
		}
		emb := s.Embedding
		if emb == "" {
			emb = DefaultEmbedding
		}
		fmt.Fprintf(&b, "%-24s channel=%s", ref, ch)
		if s.Interferer != "" {
			fmt.Fprintf(&b, " interferer=%s", s.Interferer)
		}
		fmt.Fprintf(&b, " embedding=%s", emb)
		if s.Mobility {
			b.WriteString(" mobile")
		}
		b.WriteByte('\n')
		if s.Description != "" {
			b.WriteString("    " + s.Description + "\n")
		}
	}
	return b.String()
}

func namesLocked[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register(Scenario{
		Name:        DefaultName,
		Description: "the paper's indoor world: TDL channel, no interferer, silence-interval embedding",
		Channel:     DefaultChannel,
		Embedding:   DefaultEmbedding,
	})
}
