module whale/benchmark

go 1.22

require whale v0.0.0

replace whale => ../
