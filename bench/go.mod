module tsp/bench

go 1.22

require tsp v0.0.0

replace tsp => ../
