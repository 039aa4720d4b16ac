module ray/benchmark

go 1.24

require ray v0.0.0

replace ray => ../
