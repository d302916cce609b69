"""Serial reference for the EMS trainer, kept as a test oracle.

:class:`SerialPFDRLTrainer` trains with the per-agent
``DQNAgent.run_episode`` loop (one residence after another, each
device's hour-long episode after the last) and evaluates with the
per-step greedy ``evaluate_episode`` rollout.  Everything else — share
rounds, accounting, persistence — is the production trainer's, so the
stacked engine must match it bit for bit.
"""

from repro.core.pfdrl import PFDRLTrainer


class SerialPFDRLTrainer(PFDRLTrainer):
    def _train_segment(self, seg_lo, seg_hi, rewards, optima):
        for lo in range(seg_lo, seg_hi, self.horizon):
            hi = min(lo + self.horizon, seg_hi)
            if hi - lo < 2:
                continue
            for stream in self.streams:
                for dev_stream in stream.devices.values():
                    agent = self.agent_for(stream.residence_id, dev_stream.device)
                    env = self._episode_env(dev_stream, lo, hi)
                    rewards.append(agent.run_episode(env, learn=True))
                    optima.append(env.max_episode_reward())

    def _greedy_chunks(self, agent, dev_stream):
        n = len(dev_stream.real_kw)
        for lo in range(0, n, self.horizon):
            hi = min(lo + self.horizon, n)
            env = self._episode_env(dev_stream, lo, hi)
            reward, controlled = agent.evaluate_episode(env)
            yield lo, hi, reward, env.max_episode_reward(), controlled
