package main

import (
	"fmt"
	"strings"
)

// namedQuery is one canonical read; its expected row count is calibrated
// per run on the serial closure.
type namedQuery struct {
	name, text string
}

// shape is the dataset-specific half of the serving drill: the canonical
// reads and the write batches. Every write batch fires real OWL-Horst
// rules, and none of them changes any canonical read's answer, so a read's
// expected row count holds for the whole run whatever the write backlog.
type shape struct {
	queries []namedQuery
	// batch returns write batch i over a dataset of the given scale, as
	// N-Triples, plus one derived triple (as an N-Triples statement) that is
	// in the closure exactly while the batch is live.
	batch func(scale, i int) (nt, marker string)
}

const (
	lubmNS  = "http://benchmark.powl/lubm#"
	mdcNS   = "http://benchmark.powl/mdc#"
	rdfType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
)

func stmt(s, p, o string) string { return "<" + s + "> <" + p + "> <" + o + "> .\n" }

// lubmBatch adds a publication and an alumnus; see lubmShape.
func lubmBatch(univs, i int) (string, string) {
	u, v := i%univs, (7*i+3)%univs
	dept := fmt.Sprintf("%suniv%d/dept0/", lubmNS, u)
	pub := fmt.Sprintf("%sbenchpub%d", dept, i)
	alum := fmt.Sprintf("%sbenchalum%d", dept, i)
	univ := fmt.Sprintf("%suniv%d", lubmNS, v)
	var b strings.Builder
	b.WriteString(stmt(pub, rdfType, lubmNS+"JournalArticle"))
	b.WriteString(stmt(pub, lubmNS+"publicationAuthor", fmt.Sprintf("%sprof%d", dept, i%6)))
	b.WriteString(stmt(alum, lubmNS+"undergraduateDegreeFrom", univ))
	return b.String(), stmt(univ, lubmNS+"hasAlumnus", alum)
}

// lubmShape reads with the four owlload canonical queries. Each write adds a
// publication authored by an existing professor (domain, range and
// subClassOf typing) and an alumnus of an existing university
// (subPropertyOf into degreeFrom, inverseOf into hasAlumnus, domain typing).
// Neither becomes a Professor, a member, or an instance of a new class.
var lubmShape = &shape{
	queries: []namedQuery{
		{"professors", `SELECT ?x WHERE { ?x a <http://benchmark.powl/lubm#Professor> . }`},
		{"members", `SELECT ?x ?o WHERE { ?x <http://benchmark.powl/lubm#memberOf> ?o . }`},
		{"profDepts", `PREFIX ub: <http://benchmark.powl/lubm#>
SELECT ?x ?d WHERE { ?x a ub:Professor . ?x ub:worksFor ?d . }`},
		{"classes", `SELECT DISTINCT ?t WHERE { ?x a ?t . }`},
	},
	batch: lubmBatch,
}

// lubmPointShape reads small neighbourhoods of one department that the
// writes never touch (they write into dept0 and onto universities, and
// the reads look at univ1's dept1): staff through the worksFor
// subproperty, a professor's types, members, and the transitive
// sub-organizations of a university. The batch workloads serve their
// closure with it, because the canonical reads' thousands of rows per
// reply would cap a LUBM-50 server below the rate a p99 needs.
var lubmPointShape = &shape{
	queries: []namedQuery{
		{"deptStaff", `SELECT ?x WHERE { ?x <http://benchmark.powl/lubm#worksFor> <http://benchmark.powl/lubm#univ1/dept1> . }`},
		{"profTypes", `SELECT ?t WHERE { <http://benchmark.powl/lubm#univ1/dept1/prof0> a ?t . }`},
		{"deptMembers", `SELECT ?x WHERE { ?x <http://benchmark.powl/lubm#memberOf> <http://benchmark.powl/lubm#univ1/dept1> . }`},
		{"subOrgs", `SELECT ?o WHERE { ?o <http://benchmark.powl/lubm#subOrganizationOf> <http://benchmark.powl/lubm#univ1> . }`},
	},
	batch: lubmBatch,
}

// mdcShape reads the neighbourhood of well1 in field1, which the writes
// never touch (they write into well0 of each field): its transitive parts,
// a sensor's types, a channel's transitive upstreamOf successors and a
// device's sensors. Each write attaches a new pressure sensor to an existing, already
// instrumented device (subClassOf typing, hasSensor domain and range) and
// places it in the containment chain, so the transitive partOf rule carries
// it up to the field.
var mdcShape = &shape{
	queries: []namedQuery{
		{"wellParts", `SELECT ?x WHERE { ?x <http://benchmark.powl/mdc#partOf> <http://benchmark.powl/mdc#field1/well1> . }`},
		{"sensorTypes", `SELECT ?t WHERE { <http://benchmark.powl/mdc#field1/well1/sensor0_0> a ?t . }`},
		{"upstream", `SELECT ?c WHERE { <http://benchmark.powl/mdc#field1/well1/chan0_0> <http://benchmark.powl/mdc#upstreamOf> ?c . }`},
		{"devSensors", `SELECT ?s WHERE { <http://benchmark.powl/mdc#field1/well1/dev0> <http://benchmark.powl/mdc#hasSensor> ?s . }`},
	},
	batch: func(fields, i int) (string, string) {
		field := fmt.Sprintf("%sfield%d", mdcNS, i%fields)
		dev := field + "/well0/dev0"
		sensor := fmt.Sprintf("%s/well0/benchsensor%d", field, i)
		var b strings.Builder
		b.WriteString(stmt(sensor, rdfType, mdcNS+"PressureSensor"))
		b.WriteString(stmt(dev, mdcNS+"hasSensor", sensor))
		b.WriteString(stmt(sensor, mdcNS+"partOf", dev))
		return b.String(), stmt(sensor, mdcNS+"partOf", field)
	},
}
