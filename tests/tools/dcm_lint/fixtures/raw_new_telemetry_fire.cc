// Fixture: no-raw-new-in-hot-path positive — every monitor agent ticks once
// a simulated second, and each sample crosses the producer, a partition log
// and a consumer, so every MonitorAgent, Producer, Partition and Consumer
// member is a seed. A per-sample heap record in any of them fires; a
// one-off report over the log, which nothing hot calls, stays silent.
struct Sample {
  int value = 0;
};

class MonitorAgent {
 public:
  int tick(int value);
};

int MonitorAgent::tick(int value) {
  Sample* sample = new Sample{value};
  const int out = sample->value;
  delete sample;
  return out;
}

class Producer {
 public:
  int send(int value);
};

int Producer::send(int value) {
  Sample* sample = new Sample{value};
  const int out = sample->value;
  delete sample;
  return out;
}

class Partition {
 public:
  int append(int value);
};

int Partition::append(int value) {
  Sample* sample = new Sample{value};
  const int out = sample->value;
  delete sample;
  return out;
}

class Consumer {
 public:
  int poll(int value);
};

int Consumer::poll(int value) {
  Sample* sample = new Sample{value};
  const int out = sample->value;
  delete sample;
  return out;
}

int summarize_log(int value) {
  Sample* sample = new Sample{value};
  const int out = sample->value;
  delete sample;
  return out;
}
