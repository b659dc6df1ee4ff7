package graph

// RefDiameter is refDiameter for the external tests, which build networks
// through packages that import graph.
var RefDiameter = refDiameter
