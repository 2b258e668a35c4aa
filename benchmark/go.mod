module silo/benchmark

go 1.24

require silo v0.0.0

replace silo => ../
