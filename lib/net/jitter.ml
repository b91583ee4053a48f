open Domino_sim

type params = {
  level_median_ms : float;
  level_sigma : float;
  level_epoch : Time_ns.span;
  noise_mean_ms : float;
  spike_prob : float;
  spike_ms : Dist.t;
}

let default_wan =
  {
    level_median_ms = 0.15;
    level_sigma = 0.6;
    level_epoch = Time_ns.sec 30;
    noise_mean_ms = 0.04;
    spike_prob = 0.03;
    spike_ms = Dist.Shifted (0.8, Dist.Exponential 1.2);
  }

let calm_lan =
  {
    level_median_ms = 0.02;
    level_sigma = 0.3;
    level_epoch = Time_ns.sec 30;
    noise_mean_ms = 0.01;
    spike_prob = 0.001;
    spike_ms = Dist.Exponential 0.5;
  }

type t = {
  params : params;
  rng : Rng.t;
  mutable level : float;
  mutable next_change : Time_ns.t;
}

let draw_level params rng =
  Rng.lognormal rng ~mu:(log params.level_median_ms) ~sigma:params.level_sigma

let draw_epoch params rng =
  Time_ns.of_ms_f
    (Rng.exponential rng ~mean:(Time_ns.to_ms_f params.level_epoch))

let create ?(params = default_wan) rng =
  let rng = Rng.split rng in
  {
    params;
    rng;
    level = draw_level params rng;
    next_change = draw_epoch params rng;
  }

let sample_ms t ~now =
  let p = t.params in
  while now >= t.next_change do
    t.level <- draw_level p t.rng;
    t.next_change <- Time_ns.add t.next_change (draw_epoch p t.rng)
  done;
  let noise = Rng.exponential t.rng ~mean:p.noise_mean_ms in
  let spike =
    if Rng.float t.rng < p.spike_prob then Dist.sample_ms p.spike_ms t.rng
    else 0.
  in
  Float.max 0. (t.level +. noise +. spike)

let sample t ~now = Time_ns.of_ms_f (sample_ms t ~now)
