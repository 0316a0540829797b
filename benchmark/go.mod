module telecast/benchmark

go 1.24

require telecast v0.0.0

replace telecast => ../
