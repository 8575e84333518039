package lang

// TreeRun exposes the tree-walking oracle to the external differential
// tests, which build programs from packages that import lang.
var TreeRun = treeRun
