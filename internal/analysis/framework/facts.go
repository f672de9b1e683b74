package framework

import (
	"encoding/json"
	"fmt"
	"go/types"
	"reflect"
	"sort"
)

// A Fact is a unit of information an analyzer attaches to a package-level
// object (a function, method, or variable) in one package so it can be
// consulted when a *different* package that imports it is analyzed.
// Mirrors analysis.Fact from x/tools: concrete fact types are structs
// with exported fields, registered through Analyzer.FactTypes, and must
// survive a JSON round trip — that is the wire format the driver writes
// into the unit-checker's .vetx files.
type Fact interface {
	// AFact is a marker method; it has no behavior.
	AFact()
}

// factKey identifies one stored fact: the analyzer that produced it, the
// object it describes (as an ObjectKey), and the concrete fact type.
type factKey struct {
	analyzer string
	object   string
	typ      string
}

// A FactStore holds every fact produced or imported during a run. The
// fixture harness (analysistest) threads one store through all packages
// (analyzed in dependency order); the vet-tool driver fills a fresh store from the
// dependencies' .vetx files before each package and serializes the union
// afterwards, which is exactly how the go command expects facts to
// accumulate along the import graph.
type FactStore struct {
	types map[string]reflect.Type // "analyzer/TypeName" -> struct type
	facts map[factKey]Fact
}

// NewFactStore returns a store that recognizes the fact types the given
// analyzers registered via FactTypes. Facts of unregistered types are
// silently dropped on Decode (tolerating version skew between tool
// builds, like x/tools' facts gob decoder).
func NewFactStore(analyzers []*Analyzer) *FactStore {
	s := &FactStore{
		types: map[string]reflect.Type{},
		facts: map[factKey]Fact{},
	}
	for _, a := range analyzers {
		for _, f := range a.FactTypes {
			s.types[a.Name+"/"+factTypeName(f)] = factStructType(f)
		}
	}
	return s
}

func factStructType(f Fact) reflect.Type {
	t := reflect.TypeOf(f)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t
}

func factTypeName(f Fact) string { return factStructType(f).Name() }

// ObjectKey returns the stable cross-package name facts are keyed by:
// "pkgpath.Name" for package-level functions and variables,
// "pkgpath.Recv.Name" for methods. Objects without a package (builtins,
// locals with no parent package) get no key and carry no facts.
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			rn := recvTypeName(sig.Recv().Type())
			if rn == "" {
				return ""
			}
			name = rn + "." + name
		}
	}
	return obj.Pkg().Path() + "." + name
}

func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// export records a fact for obj under the given analyzer name.
func (s *FactStore) export(analyzer string, obj types.Object, f Fact) {
	key := ObjectKey(obj)
	if key == "" {
		return
	}
	s.facts[factKey{analyzer, key, factTypeName(f)}] = f
}

// importFact copies a previously exported fact for obj into *f and
// reports whether one existed.
func (s *FactStore) importFact(analyzer string, obj types.Object, f Fact) bool {
	key := ObjectKey(obj)
	if key == "" {
		return false
	}
	got, ok := s.facts[factKey{analyzer, key, factTypeName(f)}]
	if !ok {
		return false
	}
	dst := reflect.ValueOf(f)
	if dst.Kind() != reflect.Pointer || dst.IsNil() {
		return false
	}
	src := reflect.ValueOf(got)
	for src.Kind() == reflect.Pointer {
		src = src.Elem()
	}
	dst.Elem().Set(src)
	return true
}

// Len reports the number of stored facts.
func (s *FactStore) Len() int { return len(s.facts) }

// wireFact is the serialized form of one fact inside a .vetx file. The
// whole file is a JSON array of these, sorted by (analyzer, object,
// type) so identical fact sets serialize identically — the linter obeys
// its own determinism rules.
type wireFact struct {
	Analyzer string          `json:"analyzer"`
	Object   string          `json:"object"`
	Type     string          `json:"type"`
	Data     json.RawMessage `json:"data"`
}

// Encode serializes every stored fact in deterministic order.
func (s *FactStore) Encode() ([]byte, error) {
	ws := make([]wireFact, 0, len(s.facts))
	for k, f := range s.facts {
		data, err := json.Marshal(f)
		if err != nil {
			return nil, fmt.Errorf("encoding fact %s/%s for %s: %w", k.analyzer, k.typ, k.object, err)
		}
		ws = append(ws, wireFact{Analyzer: k.analyzer, Object: k.object, Type: k.typ, Data: data})
	}
	sort.Slice(ws, func(i, j int) bool {
		a, b := ws[i], ws[j]
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Type < b.Type
	})
	return json.Marshal(ws)
}

// Decode merges facts serialized by Encode into the store. Empty input
// is a valid empty fact set (older tool builds wrote zero-byte .vetx
// files); facts of unregistered analyzer/type pairs are skipped.
func (s *FactStore) Decode(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var ws []wireFact
	if err := json.Unmarshal(data, &ws); err != nil {
		return fmt.Errorf("decoding fact file: %w", err)
	}
	for _, w := range ws {
		t, ok := s.types[w.Analyzer+"/"+w.Type]
		if !ok {
			continue
		}
		fv := reflect.New(t)
		if err := json.Unmarshal(w.Data, fv.Interface()); err != nil {
			return fmt.Errorf("decoding fact %s/%s for %s: %w", w.Analyzer, w.Type, w.Object, err)
		}
		f, ok := fv.Interface().(Fact)
		if !ok {
			continue
		}
		s.facts[factKey{w.Analyzer, w.Object, w.Type}] = f
	}
	return nil
}
