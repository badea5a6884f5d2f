module qpi/benchmark

go 1.24

require qpi v0.0.0

replace qpi => ../
