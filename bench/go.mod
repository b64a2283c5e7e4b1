module prairie/bench

go 1.22

require prairie v0.0.0

replace prairie => ../
