// Fixture: no-raw-new-in-hot-path positive — every EventQueue member sifts
// the heap on every event (schedule, cancel and retime, not only pop), and
// Engine::retime_after moves a pending event on every rate change. An
// allocation in any of them fires; a cold Engine member stays silent.
struct Node {
  int key = 0;
};

class EventQueue {
 public:
  int cancel(int key);
};

int EventQueue::cancel(int key) {
  Node* node = new Node{key};
  const int out = node->key;
  delete node;
  return out;
}

class Engine {
 public:
  int retime_after(int key);
  int describe(int key);
};

int Engine::retime_after(int key) {
  Node* node = new Node{key};
  const int out = node->key;
  delete node;
  return out;
}

int Engine::describe(int key) {
  Node* node = new Node{key};
  const int out = node->key;
  delete node;
  return out;
}
