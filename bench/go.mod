module javaflow/bench

go 1.23

require javaflow v0.0.0

replace javaflow => ../
