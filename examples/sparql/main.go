// SPARQL: querying the KB substrate directly with the repo's SPARQL subset
// engine. The queries are the paper's own §4.1 shapes (Q_types, Q¹_rels,
// Q²_rels) plus the per-tuple ASK of §6.1 — the shapes the pipeline itself
// evaluates as direct rdf index lookups, not through this engine.
//
//	go run ./examples/sparql
package main

import (
	"fmt"
	"log"

	"katara/internal/sparql"
	"katara/internal/workload"
	"katara/internal/world"
)

func main() {
	w := world.New(1, world.Config{})
	kb := workload.YagoLike(w, 1)
	engine := sparql.NewEngine(kb.Store)

	show := func(title, query string) {
		fmt.Println("# " + title)
		fmt.Println(query)
		res, err := engine.Run(query)
		if err != nil {
			log.Fatal(err)
		}
		if len(res.Vars) == 0 {
			fmt.Printf("=> %v\n\n", res.Bool)
			return
		}
		for i, row := range res.Rows {
			if i >= 8 {
				fmt.Printf("   ... (%d more)\n", len(res.Rows)-i)
				break
			}
			fmt.Print("  ")
			for _, v := range res.Vars {
				fmt.Printf(" ?%s=%s", v, kb.Store.LabelOf(row[v]))
			}
			fmt.Println()
		}
		fmt.Println()
	}

	// Q_types (§4.1): the candidate types of a cell value.
	show("Q_types: types and supertypes of the entity labelled \"Italy\"",
		`SELECT DISTINCT ?c WHERE {
			?x rdfs:label "Italy" .
			?x rdf:type/rdfs:subClassOf* ?c }`)

	// Q¹_rels (§4.1): relationships between two resource-valued cells.
	show("Q1_rels: relationships from \"Italy\" to \"Rome\"",
		`SELECT DISTINCT ?P WHERE {
			?xi rdfs:label "Italy" .
			?xj rdfs:label "Rome" .
			?xi ?P ?xj }`)

	// §6.1 step 1: is a tuple's edge covered by the KB?
	show("ASK: does the KB know Italy's capital is Rome?",
		`ASK { ?c rdfs:label "Italy" . ?k rdfs:label "Rome" . ?c ?p ?k }`)

	// Joins across the pattern graph.
	show("players who are citizens of a country whose capital is labelled \"Rome\"",
		`SELECT ?who WHERE {
			?who ?cit ?country .
			?country ?cap ?capital .
			?capital rdfs:label "Rome" .
			FILTER(?cit = yago:isCitizenOf)
			FILTER(?cap = yago:hasCapital) } LIMIT 10`)

	// Property paths over the deep Yago-like hierarchy.
	show("everything the class 'capital' transitively specialises",
		`SELECT ?c WHERE { ?k rdfs:label "capital" . ?k rdfs:subClassOf* ?c }`)
}
