// Package workload builds the experimental inputs of §7: two knowledge
// bases — a Yago-like one (deep, noisy type hierarchy, patchy relation
// coverage) and a DBpedia-like one (small flat ontology, different coverage
// profile) — and the three dataset families (WikiTables, WebTables,
// RelationalTables), all as incomplete views over one internal/world ground
// truth. Ground-truth patterns and crowd oracles come from the same source.
package workload

import (
	"math/rand"
	"strings"

	"katara/internal/rdf"
	"katara/internal/world"
)

// KB wraps a store with the mapping between KB IRIs and the world's
// semantic vocabulary.
type KB struct {
	Name  string
	Store *rdf.Store
	// TypeID / PropID map semantic names to KB resources (absent names are
	// not covered by this KB).
	TypeID map[string]rdf.ID
	PropID map[string]rdf.ID
	// TypeName / PropName are the reverse maps.
	TypeName map[rdf.ID]string
	PropName map[rdf.ID]string
	// TypeCheck holds the real-world membership predicate of every declared
	// class, including noise classes with no semantic name — what the
	// simulated crowd consults when asked "Is value v a T?".
	TypeCheck map[rdf.ID]func(value string) bool
}

// TypeFor resolves a semantic type to this KB, walking up the semantic
// hierarchy when the specific type is not modelled (a "capital" column maps
// to City in a KB without a capital class). Returns rdf.NoID if nothing on
// the chain is covered.
func (kb *KB) TypeFor(semantic string) rdf.ID {
	for t := semantic; t != ""; t = world.TypeHierarchy[t] {
		if id, ok := kb.TypeID[t]; ok {
			return id
		}
	}
	return rdf.NoID
}

// PropFor resolves a semantic relationship, or rdf.NoID.
func (kb *KB) PropFor(semantic string) rdf.ID {
	if id, ok := kb.PropID[semantic]; ok {
		return id
	}
	return rdf.NoID
}

// Clone deep-copies the KB. rdf.Store.Clone does not preserve term IDs, so
// the semantic maps are re-resolved against the cloned store — an oracle
// built from the clone answers in the clone's ID space. (An oracle built
// from the original against a cloned store silently rejects everything;
// the propcheck harness exists to catch exactly that class of mix-up.)
func (kb *KB) Clone() *KB {
	st := kb.Store.Clone()
	// Every declared type/prop carries at least a label triple, so Intern
	// here is a pure lookup: no new IDs are minted and map iteration order
	// cannot influence the clone's ID assignment.
	remap := func(id rdf.ID) rdf.ID { return st.Intern(kb.Store.Term(id)) }
	out := &KB{
		Name:      kb.Name,
		Store:     st,
		TypeID:    make(map[string]rdf.ID, len(kb.TypeID)),
		PropID:    make(map[string]rdf.ID, len(kb.PropID)),
		TypeName:  make(map[rdf.ID]string, len(kb.TypeName)),
		PropName:  make(map[rdf.ID]string, len(kb.PropName)),
		TypeCheck: make(map[rdf.ID]func(string) bool, len(kb.TypeCheck)),
	}
	for sem, id := range kb.TypeID {
		out.TypeID[sem] = remap(id)
	}
	for sem, id := range kb.PropID {
		out.PropID[sem] = remap(id)
	}
	for id, name := range kb.TypeName {
		out.TypeName[remap(id)] = name
	}
	for id, name := range kb.PropName {
		out.PropName[remap(id)] = name
	}
	for id, check := range kb.TypeCheck {
		out.TypeCheck[remap(id)] = check
	}
	return out
}

// coverage holds the incompleteness knobs of one KB.
type coverage struct {
	entity map[string]float64 // semantic type -> fraction of entities present
	fact   map[string]float64 // semantic relation -> fraction of facts present
	omit   map[string]bool    // relations absent from the KB schema entirely
}

func (c coverage) entityP(t string) float64 {
	if v, ok := c.entity[t]; ok {
		return v
	}
	return 1
}

func (c coverage) factP(r string) float64 {
	if v, ok := c.fact[r]; ok {
		return v
	}
	return 1
}

// builder accumulates a KB under construction.
type builder struct {
	kb     *KB
	w      *world.World
	rng    *rand.Rand
	cov    coverage
	prefix string
	res    map[string]rdf.ID // world value -> resource (if materialised)
}

func newBuilder(name, prefix string, w *world.World, seed int64, cov coverage) *builder {
	st := rdf.New()
	return &builder{
		kb: &KB{
			Name:      name,
			Store:     st,
			TypeID:    map[string]rdf.ID{},
			PropID:    map[string]rdf.ID{},
			TypeName:  map[rdf.ID]string{},
			PropName:  map[rdf.ID]string{},
			TypeCheck: map[rdf.ID]func(string) bool{},
		},
		w:      w,
		rng:    rand.New(rand.NewSource(seed)),
		cov:    cov,
		prefix: prefix,
		res:    map[string]rdf.ID{},
	}
}

// iriReplacer maps an entity name to its IRI-safe form. A Replacer is safe
// for concurrent use and builds its lookup table once, so it is shared.
var iriReplacer = strings.NewReplacer(" ", "_", ".", "", ",", "")

func iriSafe(s string) string { return iriReplacer.Replace(s) }

// declareType registers a class with its label and semantic name ("" for
// classes with no single world type). check overrides the real-world
// membership predicate; when nil and semantic is set, the world's own
// hierarchy check is used.
func (b *builder) declareType(iri, label, semantic string, check func(string) bool) rdf.ID {
	st := b.kb.Store
	id := st.Res(iri)
	st.Add(id, st.LabelID, st.Literal(label))
	if semantic != "" {
		if _, exists := b.kb.TypeID[semantic]; !exists {
			b.kb.TypeID[semantic] = id
			b.kb.TypeName[id] = semantic
		}
		if check == nil {
			sem := semantic
			check = func(v string) bool { return b.w.TypeHolds(v, sem) }
		}
	}
	if check != nil {
		b.kb.TypeCheck[id] = check
	}
	return id
}

func (b *builder) subclass(child, parent rdf.ID) {
	st := b.kb.Store
	st.Add(child, st.SubClassOfID, parent)
}

func (b *builder) declareProp(iri, label, semantic string) rdf.ID {
	st := b.kb.Store
	id := st.Res(iri)
	st.Add(id, st.LabelID, st.Literal(label))
	if semantic != "" {
		b.kb.PropID[semantic] = id
		b.kb.PropName[id] = semantic
	}
	return id
}

// entity materialises a world value as a typed, labelled resource if the
// coverage roll passes. Repeated calls reuse the resource.
func (b *builder) entity(value, semanticType string, extraTypes ...rdf.ID) rdf.ID {
	if id, ok := b.res[value]; ok {
		if id != rdf.NoID {
			for _, t := range extraTypes {
				b.kb.Store.Add(id, b.kb.Store.TypeID, t)
			}
		}
		return id
	}
	if b.rng.Float64() >= b.cov.entityP(semanticType) {
		b.res[value] = rdf.NoID
		return rdf.NoID
	}
	st := b.kb.Store
	id := st.Res(b.prefix + iriSafe(value))
	st.Add(id, st.LabelID, st.Literal(value))
	// Resolve through the semantic hierarchy: a KB without a capital class
	// still types capitals as City (the real DBpedia behaviour).
	if t := b.kb.TypeFor(semanticType); t != rdf.NoID {
		st.Add(id, st.TypeID, t)
	}
	for _, t := range extraTypes {
		st.Add(id, st.TypeID, t)
	}
	b.res[value] = id
	return id
}

// fact adds (subj, rel, obj-resource) if both ends exist, the relation is in
// the schema, and the coverage roll passes.
func (b *builder) fact(subj rdf.ID, rel string, obj rdf.ID) {
	if subj == rdf.NoID || obj == rdf.NoID || b.cov.omit[rel] {
		return
	}
	p, ok := b.kb.PropID[rel]
	if !ok {
		return
	}
	if b.rng.Float64() >= b.cov.factP(rel) {
		return
	}
	b.kb.Store.Add(subj, p, obj)
}

// literalFact is fact with a literal object.
func (b *builder) literalFact(subj rdf.ID, rel, lit string) {
	if subj == rdf.NoID || b.cov.omit[rel] {
		return
	}
	p, ok := b.kb.PropID[rel]
	if !ok {
		return
	}
	if b.rng.Float64() >= b.cov.factP(rel) {
		return
	}
	b.kb.Store.Add(subj, p, b.kb.Store.Literal(lit))
}

// populate walks the world once, emitting entities and facts. Which types
// each entity gets beyond its semantic class is supplied by extra.
func (b *builder) populate(extra func(kind, value string) []rdf.ID) {
	w := b.w
	ex := func(kind, value string) []rdf.ID {
		if extra == nil {
			return nil
		}
		return extra(kind, value)
	}

	for _, c := range w.Countries {
		country := b.entity(c.Name, world.TCountry, ex("country", c.Name)...)
		capital := b.entity(c.Capital, world.TCapital, ex("capital", c.Capital)...)
		lang := b.entity(c.Language, world.TLanguage)
		cont := b.entity(c.Continent, world.TContinent)
		b.fact(country, world.RHasCapital, capital)
		b.fact(country, world.RLanguage, lang)
		b.fact(country, world.RContinent, cont)
	}
	for _, s := range w.States {
		st := b.entity(s.Name, world.TState, ex("state", s.Name)...)
		cap := b.entity(s.Capital, world.TCapital, ex("capital", s.Capital)...)
		b.fact(cap, world.RCityState, st)
	}
	for _, c := range w.Cities {
		if c.Capital {
			continue // already added
		}
		city := b.entity(c.Name, world.TCity, ex("city", c.Name)...)
		// College towns carry their state (the §7 University workload).
		if st := w.StateOfCity(c.Name); st != "" {
			b.fact(city, world.RCityState, b.res[st])
		}
	}
	for _, cl := range w.Clubs {
		club := b.entity(cl.Name, world.TClub, ex("club", cl.Name)...)
		city := b.res[cl.City]
		league := b.entity(cl.League, world.TLeague)
		b.fact(club, world.RClubCity, city)
		b.fact(club, world.RInLeague, league)
	}
	for i := range w.Persons {
		p := &w.Persons[i]
		pl := w.PlayerOf(p.Name)
		kind, sem := "person", world.TPerson
		if pl != nil {
			kind, sem = "player", world.TPlayer
		}
		pe := b.entity(p.Name, sem, ex(kind, p.Name)...)
		b.fact(pe, world.RNationality, b.res[p.Country])
		b.fact(pe, world.RBornIn, b.res[p.BirthCity])
		b.literalFact(pe, world.RHeight, p.Height)
		if pl != nil {
			b.fact(pe, world.RPlaysFor, b.res[pl.Club])
		}
	}
	for _, u := range w.Universities {
		ue := b.entity(u.Name, world.TUniversity, ex("university", u.Name)...)
		b.fact(ue, world.RUnivCity, b.res[u.City])
		b.fact(ue, world.RUnivState, b.res[u.State])
	}
	for _, f := range w.Films {
		fe := b.entity(f.Title, world.TFilm, ex("film", f.Title)...)
		b.fact(fe, world.RDirector, b.res[f.Director])
		b.literalFact(fe, world.RFilmYear, f.Year)
	}
	for _, bk := range w.Books {
		be := b.entity(bk.Title, world.TBook, ex("book", bk.Title)...)
		b.fact(be, world.RAuthor, b.res[bk.Author])
		b.literalFact(be, world.RBookYear, bk.Year)
	}
}
